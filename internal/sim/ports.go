package sim

// Single-port in-port buffers. The original engine kept one
// map[NodeID][]Envelope per node, paying a hash lookup plus an append
// allocation per deposit and re-slicing (or deleting) per poll. The
// replacement is index-addressed: each receiving node owns a portSet
// whose idx table maps a sender directly to a ring buffer of Envelopes,
// and the rings recycle their storage, so steady-state deposit and poll
// touch no allocator at all.
//
// The idx tables are n-sized and survive arena reuse (see
// state.reset): a fresh run on a pooled Runtime recycles the previous
// run's tables instead of lazily re-allocating up to n of them — the
// O(n²) worst-case table bytes dense-fanout scenarios used to pay per
// run.

// portRing is one in-port FIFO: a power-of-two ring buffer.
type portRing struct {
	buf  []Envelope // len(buf) is always a power of two (or zero)
	head int
	size int
}

func (r *portRing) push(env Envelope) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = env
	r.size++
}

func (r *portRing) grow() {
	ncap := len(r.buf) * 2
	if ncap == 0 {
		ncap = 4
	}
	nbuf := make([]Envelope, ncap)
	for i := 0; i < r.size; i++ {
		nbuf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nbuf
	r.head = 0
}

func (r *portRing) pop() (Envelope, bool) {
	if r.size == 0 {
		return Envelope{}, false
	}
	env := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return env, true
}

// portSet is one node's set of in-ports, addressed by sender index.
// idx is allocated on the node's first deposit (idx[from] is the ring's
// position in rings, plus one; zero means the port was never used), so
// nodes that never receive cost two nil slices.
type portSet struct {
	idx   []int32
	rings []portRing
}

func (p *portSet) push(n int, env Envelope) {
	if p.idx == nil {
		p.idx = make([]int32, n)
	}
	k := p.idx[env.From]
	if k == 0 {
		p.rings = append(p.rings, portRing{})
		k = int32(len(p.rings))
		p.idx[env.From] = k
	}
	p.rings[k-1].push(env)
}

func (p *portSet) pop(from NodeID) (Envelope, bool) {
	if p.idx == nil {
		return Envelope{}, false
	}
	k := p.idx[from]
	if k == 0 {
		return Envelope{}, false
	}
	return p.rings[k-1].pop()
}

// recycle empties the rings for a fresh run on the same arena, keeping
// the idx table and the ring storage (the sender→ring assignments stay
// valid; re-running the same topology redeposits into warm buffers).
// Buffered envelopes are cleared, so an idle arena pins no payload.
func (p *portSet) recycle() {
	for i := range p.rings {
		clear(p.rings[i].buf)
		p.rings[i].head = 0
		p.rings[i].size = 0
	}
}

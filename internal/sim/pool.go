package sim

import (
	"errors"
	"runtime"
	"sync"
)

// The parallel engine shards nodes across a fixed pool of workers
// (≈GOMAXPROCS, not one goroutine per node), barrier-synced per phase.
// On the fast path (no link filter installed) a round is four worker
// phases with thin serial seams between them:
//
//	send     workers call Send + validate for their shard
//	(seam)   node-level fault + crash bookkeeping, in node order
//	pack     workers pack their shard's outboxes into shard-local
//	         wire buffers, counting per-destination totals and
//	         shard-local traffic metrics
//	(seam)   prefix-sum the shard counts into global segment offsets
//	         and per-(worker, destination) cursors; merge metrics
//	scatter  workers place their own staged runs into the shared
//	         inbox — disjoint cursor ranges, no coordination
//	deliver  workers decode + call Deliver + Halted for their shard
//
// Because worker shards are contiguous ascending node ranges and each
// worker stages in node order, laying a destination's segment out as
// worker 0's messages, then worker 1's, … reproduces exactly the
// ascending-sender order the sequential engine guarantees. Everything
// order-sensitive that remains — the fault layer and the offsets — is
// serial, so the transcript is identical to the sequential engine's;
// the equivalence is a test. Per-message work (packing, the sizeBits
// accounting, the cache-missy scatter, decoding) all fans out, which
// is what the serial-stitch design this replaces left on the
// coordinator.
//
// Runs with a link filter installed (per-envelope drop/delay verdicts)
// fall back to the serial stitch for the fault, counting and staging
// seam — verdict order is observable by stateful filters — and still
// fan out send and the decode + deliver phase.
//
// The pool is reusable across runs (see Runtime): workers persist,
// blocked on their job channels, and prepare re-sizes the per-node and
// per-worker buffers for the next configuration.

// RunParallel executes the configured system on the sharded worker
// pool. workers <= 0 selects GOMAXPROCS. It produces results identical
// to Run (the sequential engine); the equivalence is a test. Multi-port
// only: the single-port model is inherently centralized. Configs with
// an Observer are rejected; observers need the sequential engine's
// event order.
func RunParallel(cfg Config, workers int) (*Result, error) {
	st, err := newParallelState(cfg)
	if err != nil {
		return nil, err
	}
	p := newPool(st, resolveWorkers(workers, st.n))
	defer p.shutdown()
	st.pool = p
	res, err := st.run()
	if err != nil {
		return nil, err
	}
	// As in Run: detach the envelope from the engine arena.
	r := *res
	return &r, nil
}

var (
	errSinglePortParallel = errors.New("sim: the parallel engine supports the multi-port model only")
	errObserverParallel   = errors.New("sim: Observer requires the sequential engine")
)

// validateParallelConfig centralizes the parallel engine's config
// constraints for both entry points (package RunParallel and
// Runtime.RunParallel).
func validateParallelConfig(cfg Config) error {
	if cfg.SinglePort {
		return errSinglePortParallel
	}
	if cfg.Observer != nil {
		return errObserverParallel
	}
	return nil
}

func newParallelState(cfg Config) (*state, error) {
	if err := validateParallelConfig(cfg); err != nil {
		return nil, err
	}
	return newState(cfg)
}

// resolveWorkers maps a requested worker count to the effective one:
// <= 0 selects GOMAXPROCS, and the count is clamped to the node count
// and the wire-format table-id space.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers > wireMaxTables {
		workers = wireMaxTables
	}
	return workers
}

type poolJob struct {
	kind  int
	round int
}

const (
	jobSend = iota
	jobPack
	jobScatter
	jobDeliver
)

// pool is the fixed worker pool. Workers persist for the pool's
// lifetime; each owns the contiguous node shard bounds[w]..bounds[w+1]
// and communicates with the coordinator through its job channel and
// the phase WaitGroup.
type pool struct {
	st      *state
	workers int
	bounds  []int
	jobs    []chan poolJob
	phase   sync.WaitGroup
	exited  sync.WaitGroup
	down    sync.Once
	// Per-node scratch, written only by the owning worker during a
	// phase and read by the coordinator between phases.
	outbox  [][]Envelope
	deliver [][]Envelope
	errs    []error
	halted  []bool
	// Per-worker pack state: shard-local wire buffers, escape tables
	// (table id w+1), per-destination counts, scatter cursors, decode
	// buffers, and traffic accumulators.
	wbuf     [][]wireMsg
	wesc     []escTable
	wcounts  [][]int32
	wstart   [][]int32
	dbuf     [][]Envelope
	wmsgs    []int64
	wbits    []int64
	wbyzMsgs []int64
	wbyzBits []int64
}

func newPool(st *state, workers int) *pool {
	p := &pool{
		workers:  workers,
		bounds:   make([]int, workers+1),
		jobs:     make([]chan poolJob, workers),
		wbuf:     make([][]wireMsg, workers),
		wesc:     make([]escTable, workers),
		wcounts:  make([][]int32, workers),
		wstart:   make([][]int32, workers),
		dbuf:     make([][]Envelope, workers),
		wmsgs:    make([]int64, workers),
		wbits:    make([]int64, workers),
		wbyzMsgs: make([]int64, workers),
		wbyzBits: make([]int64, workers),
	}
	p.prepare(st)
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		p.jobs[w] = make(chan poolJob, 1)
		go p.worker(w)
	}
	return p
}

// prepare re-targets the pool at a (possibly re-reset) state, sizing
// the per-node arrays and shard bounds for its node count. Steady
// state — same n across runs — touches no allocator.
func (p *pool) prepare(st *state) {
	p.st = st
	n := st.n
	if len(p.outbox) != n {
		p.outbox = make([][]Envelope, n)
		p.deliver = make([][]Envelope, n)
		p.errs = make([]error, n)
		p.halted = make([]bool, n)
		for w := 0; w < p.workers; w++ {
			p.wcounts[w] = make([]int32, n)
			p.wstart[w] = make([]int32, n)
		}
	} else {
		clear(p.outbox)
		clear(p.deliver)
		clear(p.errs)
		clear(p.halted)
	}
	for w := 0; w <= p.workers; w++ {
		p.bounds[w] = w * n / p.workers
	}
}

func (p *pool) worker(w int) {
	defer p.exited.Done()
	for job := range p.jobs[w] {
		st := p.st
		lo, hi := p.bounds[w], p.bounds[w+1]
		switch job.kind {
		case jobSend:
			for id := lo; id < hi; id++ {
				if !st.alive(id) {
					continue
				}
				out := st.cfg.Protocols[id].Send(job.round)
				if err := st.validateOutbox(id, out); err != nil {
					p.errs[id] = err
					p.outbox[id] = nil
					continue
				}
				p.outbox[id] = out
			}
		case jobPack:
			p.packShard(st, w, lo, hi)
		case jobScatter:
			p.scatterShard(st, w)
		case jobDeliver:
			buf := p.dbuf[w]
			for id := lo; id < hi; id++ {
				if !st.alive(id) {
					continue
				}
				var inbox []Envelope
				inbox, buf = decodeWireInto(st, st.scratch.inboxOf(id), buf)
				st.cfg.Protocols[id].Deliver(job.round, inbox)
				p.halted[id] = st.cfg.Protocols[id].Halted()
			}
			p.dbuf[w] = buf
		}
		p.phase.Done()
	}
}

// packShard packs one worker's share of the round's fault-surviving
// outboxes into its shard-local wire buffer, counting per-destination
// totals and shard-local traffic. Escape payloads go to the worker's
// own table (id w+1), recycled every round — the parallel fast path
// has no cross-round message parking.
func (p *pool) packShard(st *state, w, lo, hi int) {
	esc := &p.wesc[w]
	esc.reset()
	buf := p.wbuf[w][:0]
	counts := p.wcounts[w]
	clear(counts)
	table := uint64(w + 1)
	var msgs, bits, byzMsgs, byzBits int64
	for id := lo; id < hi; id++ {
		deliver := p.deliver[id]
		p.deliver[id] = nil
		if len(deliver) == 0 {
			continue
		}
		var sb int64
		for i := range deliver {
			wm, b := packEnvelope(&deliver[i], esc, table)
			buf = append(buf, wm)
			counts[wm.To]++
			sb += b
		}
		if st.byz[id] {
			byzMsgs += int64(len(deliver))
			byzBits += sb
		} else {
			msgs += int64(len(deliver))
			bits += sb
		}
	}
	p.wbuf[w] = buf
	p.wmsgs[w], p.wbits[w] = msgs, bits
	p.wbyzMsgs[w], p.wbyzBits[w] = byzMsgs, byzBits
}

// scatterShard places one worker's staged messages into the shared
// inbox. The coordinator pre-computed disjoint per-(worker,
// destination) cursor ranges, so workers write without coordination
// and every destination segment comes out in ascending sender order.
func (p *pool) scatterShard(st *state, w int) {
	inbox := st.scratch.inbox
	start := p.wstart[w]
	buf := p.wbuf[w]
	for i := range buf {
		to := buf[i].To
		inbox[start[to]] = buf[i]
		start[to]++
	}
}

// runPhase dispatches one phase to every worker and waits for the
// barrier. The WaitGroup completion gives the coordinator a
// happens-before edge over all per-node scratch the workers wrote.
func (p *pool) runPhase(kind, round int) {
	p.phase.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs[w] <- poolJob{kind: kind, round: round}
	}
	p.phase.Wait()
}

func (p *pool) shutdown() {
	p.down.Do(func() {
		for _, ch := range p.jobs {
			close(ch)
		}
		p.exited.Wait()
	})
}

// roundParallel is the pool-backed counterpart of state.round.
func (s *state) roundParallel(r int) error {
	if s.filter == nil {
		return s.roundParallelFast(r)
	}
	return s.roundParallelStitched(r)
}

// roundParallelFast runs the filter-free round: per-message packing,
// counting, scattering and decoding all fan out; only the node-level
// fault layer and the offset prefix-sum stay serial.
func (s *state) roundParallelFast(r int) error {
	p := s.pool
	p.runPhase(jobSend, r)

	// Serial seam 1: validation errors surface for the lowest
	// offending node, then the node-level fault sees outboxes in node
	// order (it may be stateful) and the crash set updates exactly as
	// in the sequential engine — after the whole send sweep.
	sc := &s.scratch
	sc.beginRound()
	// No table-0 escape lifecycle here: the fast path has no delay
	// ring and workers pack exclusively into their own tables, reset
	// every pack phase.
	s.label, s.labelSet = "", false
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		if err := p.errs[id]; err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, p.outbox[id])
		p.outbox[id] = nil
		p.deliver[id] = deliver
		if crash {
			crashedNow = append(crashedNow, id)
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
	}

	p.runPhase(jobPack, r)

	// Serial seam 2: prefix-sum the shard-local destination counts
	// into global segment offsets and disjoint per-(worker,
	// destination) scatter cursors, and merge the shard-local traffic
	// accumulators into the metrics.
	off := int32(0)
	for d := 0; d < s.n; d++ {
		sc.offs[d] = off
		for w := 0; w < p.workers; w++ {
			p.wstart[w][d] = off
			off += p.wcounts[w][d]
		}
	}
	sc.offs[s.n] = off
	sc.sizeInbox(int(off))
	var msgs, bits, byzMsgs, byzBits int64
	for w := 0; w < p.workers; w++ {
		msgs += p.wmsgs[w]
		bits += p.wbits[w]
		byzMsgs += p.wbyzMsgs[w]
		byzBits += p.wbyzBits[w]
	}
	if msgs+byzMsgs > 0 {
		s.ensureLabel(r)
	}
	s.metrics.Messages += msgs
	s.metrics.Bits += bits
	s.metrics.ByzMessages += byzMsgs
	s.metrics.ByzBits += byzBits
	s.metrics.PerRoundMessages[r] += msgs
	if s.label != "" && msgs > 0 {
		s.metrics.PerPart[s.label] += msgs
	}

	p.runPhase(jobScatter, r)
	p.runPhase(jobDeliver, r)
	for id := 0; id < s.n; id++ {
		if s.alive(id) && p.halted[id] {
			s.haltedAt[id] = r
		}
	}
	s.simulated++
	return nil
}

// roundParallelStitched serializes the fault, counting and staging
// seam — per-envelope link verdicts are order-observable — while the
// send and deliver phases still fan out.
func (s *state) roundParallelStitched(r int) error {
	p := s.pool
	p.runPhase(jobSend, r)

	sc := &s.scratch
	sc.beginRound()
	if s.escLive == 0 {
		s.esc.reset()
	}
	s.label, s.labelSet = "", false
	arrivals := s.injectArrivals(r, true)
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		if err := p.errs[id]; err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, p.outbox[id])
		p.outbox[id] = nil
		if crash {
			crashedNow = append(crashedNow, id)
		}
		s.countEnvelopes(r, id, deliver)
		if err := s.stageFiltered(r, deliver, true); err != nil {
			return err
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
	}
	if arrivals > 0 {
		sortStagedBySender(sc.flat)
	}
	sc.place()

	p.runPhase(jobDeliver, r)
	for id := 0; id < s.n; id++ {
		if s.alive(id) && p.halted[id] {
			s.haltedAt[id] = r
		}
	}
	if s.ring != nil {
		// Workers are parked again, so the coordinator may recycle the
		// round's consumed escape entries (all coordinator-packed on
		// this path, table 0).
		s.releaseDelivered()
	}
	s.simulated++
	return nil
}

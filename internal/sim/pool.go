package sim

import (
	"errors"
	"runtime"
	"sync"
)

// The parallel engine shards nodes across a fixed pool of workers
// (≈GOMAXPROCS, not one goroutine per node), barrier-synced per phase.
// A round is four worker phases with thin serial seams between them:
//
//	send     workers call Send + validate for their shard
//	(seam)   node-level fault + crash bookkeeping, in node order
//	count    workers count their shard's outboxes per destination
//	         and total its traffic, shard-locally
//	(seam)   prefix-sum the shard counts into global segment offsets
//	         and per-(worker, destination) cursors; merge metrics
//	scatter  workers copy their shard's outboxes, read in place,
//	         into the shared inbox — disjoint cursor ranges, no
//	         coordination
//	deliver  workers call Deliver + Halted for their shard
//
// Because worker shards are contiguous ascending node ranges and each
// worker scatters in node order, laying a destination's segment out as
// worker 0's messages, then worker 1's, … reproduces exactly the
// ascending-sender order the sequential engine guarantees. Everything
// order-sensitive that remains — the fault layer and the offsets — is
// serial, so the transcript is identical to the sequential engine's;
// the equivalence is a test. Per-message work (the SizeBits
// accounting and the cache-missy scatter) all fans out.
//
// A run with a link filter installed never enters this file: verdict
// order is observable by stateful filters, which leaves only send and
// deliver to fan out, and that never paid (EXPERIMENTS.md "Sharded
// rounds") — RunParallel executes such a run's rounds on the caller,
// through state.round.

// RunParallel executes the configured system on the sharded worker
// pool. workers <= 0 selects GOMAXPROCS. It produces results identical
// to Run (the sequential engine); the equivalence is a test. Multi-port
// only: the single-port model is inherently centralized. Configs with
// an Observer are rejected; observers need the sequential engine's
// event order.
func RunParallel(cfg Config, workers int) (*Result, error) {
	return oneShot(func(rt *Runtime) (*Result, error) { return rt.RunParallel(cfg, workers) })
}

// validateParallelConfig holds the parallel engine's config constraints.
func validateParallelConfig(cfg Config) error {
	if cfg.SinglePort {
		return errors.New("sim: the parallel engine supports the multi-port model only")
	}
	if cfg.Observer != nil {
		return errors.New("sim: Observer requires the sequential engine")
	}
	return nil
}

// resolveWorkers maps a requested worker count to the effective one:
// <= 0 selects GOMAXPROCS, and the count is clamped to the node count.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// phasePool is the sharded engine's worker pool: persistent goroutines
// that run its round phases (send, count, scatter, deliver) in lock
// step. run hands every worker the same phase and returns when all are
// through it, so between phases the workers are parked on their job
// channels and the caller owns all state. A Runtime owns at most one;
// like the Runtime, it is not safe for concurrent use.
type phasePool struct {
	jobs    []chan int // one per worker; empty while stopped
	target  *shards    // the workspace whose phase is in flight
	barrier sync.WaitGroup
	exited  sync.WaitGroup
	phases  int // phases dispatched over the pool's lifetime
}

// resize makes the pool run exactly w workers, replacing the current
// set when the count differs (including from zero, after shutdown).
func (p *phasePool) resize(w int) {
	if len(p.jobs) == w {
		return
	}
	p.shutdown()
	p.jobs = make([]chan int, w)
	p.exited.Add(w)
	for i := range p.jobs {
		p.jobs[i] = make(chan int, 1)
		go p.worker(i, p.jobs[i])
	}
}

func (p *phasePool) worker(w int, jobs <-chan int) {
	defer p.exited.Done()
	for kind := range jobs {
		p.target.phase(kind, w)
		p.barrier.Done()
	}
}

// run executes one phase of target on every worker and waits for the
// barrier. The job send publishes whatever the caller wrote before the
// phase to the workers; the WaitGroup completion gives the caller a
// happens-before edge over everything they wrote during it.
func (p *phasePool) run(target *shards, kind int) {
	p.target = target
	p.phases++
	p.barrier.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- kind
	}
	p.barrier.Wait()
	p.target = nil
}

// shutdown stops the workers and waits until they have exited. It is
// idempotent, and resize starts a fresh set afterwards.
func (p *phasePool) shutdown() {
	for _, ch := range p.jobs {
		close(ch)
	}
	p.exited.Wait()
	p.jobs = nil
}

// The pushed engine's phases.
const (
	jobSend = iota
	jobCount
	jobScatter
	jobDeliver
)

// shards is the pushed engine's parallel workspace: worker w owns the
// contiguous node shard bounds[w]..bounds[w+1] and the w-th entry of
// every per-worker buffer. It lives in the state's arena and is re-sized
// by prepare, so steady-state runs allocate nothing.
type shards struct {
	st     *state
	pool   *phasePool
	round  int // the round in flight, read by the workers
	bounds []int
	// Per-node scratch, written only by the owning worker during a
	// phase and by the coordinator between phases: the node's outbox —
	// as sent, then as the fault layer left it, read in place until the
	// scatter — and its send error.
	outbox [][]Envelope
	errs   []error
	work   []workerShard
}

// workerShard is one worker's count state: per-destination counts and
// scatter cursors, and traffic accumulators.
type workerShard struct {
	counts, start    []int32
	msgs, bits       int64
	byzMsgs, byzBits int64
}

// prepare targets the workspace at a freshly reset state and the pool
// that will run its phases, sizing the per-worker buffers for the pool's
// worker count and the per-node arrays and shard bounds for the state's
// node count. Steady state — same n and workers across runs — touches no
// allocator.
func (p *shards) prepare(st *state, pool *phasePool) *shards {
	workers, n := len(pool.jobs), st.n
	if len(p.work) != workers {
		*p = shards{bounds: make([]int, workers+1), work: make([]workerShard, workers)}
	}
	p.st, p.pool = st, pool
	if len(p.outbox) != n {
		p.outbox = make([][]Envelope, n)
		p.errs = make([]error, n)
		for w := range p.work {
			p.work[w].counts = make([]int32, n)
			p.work[w].start = make([]int32, n)
		}
	} else {
		clear(p.outbox)
		clear(p.errs)
	}
	for w := range p.bounds {
		p.bounds[w] = w * n / workers
	}
	return p
}

// phase is worker w's share of one round phase.
func (p *shards) phase(kind, w int) {
	st := p.st
	lo, hi := p.bounds[w], p.bounds[w+1]
	switch kind {
	case jobSend:
		for id := lo; id < hi; id++ {
			if !st.alive(id) {
				continue
			}
			out := st.cfg.Protocols[id].Send(p.round)
			p.outbox[id], p.errs[id] = out, st.validateOutbox(id, out)
		}
	case jobCount:
		p.countShard(st, w, lo, hi)
	case jobScatter:
		p.scatterShard(st, w, lo, hi)
	case jobDeliver:
		for id := lo; id < hi; id++ {
			if !st.alive(id) {
				continue
			}
			st.cfg.Protocols[id].Deliver(p.round, st.scratch.inboxOf(id))
			if st.cfg.Protocols[id].Halted() {
				// Own shard only: nobody reads another node's
				// halt round during the phase.
				st.haltedAt[id] = p.round
			}
		}
	}
}

// countShard counts one worker's share of the round's fault-surviving
// outboxes per destination and totals its traffic, shard-locally.
func (p *shards) countShard(st *state, w, lo, hi int) {
	ws := &p.work[w]
	clear(ws.counts)
	var msgs, bits, byzMsgs, byzBits int64
	for id := lo; id < hi; id++ {
		deliver := p.outbox[id]
		if len(deliver) == 0 {
			continue
		}
		sb := sizeRuns(ws.counts, deliver)
		if st.byz[id] {
			byzMsgs += int64(len(deliver))
			byzBits += sb
		} else {
			msgs += int64(len(deliver))
			bits += sb
		}
	}
	ws.msgs, ws.bits = msgs, bits
	ws.byzMsgs, ws.byzBits = byzMsgs, byzBits
}

// scatterShard copies one worker's outboxes into the shared inbox and
// lets go of them. The coordinator pre-computed disjoint per-(worker,
// destination) cursor ranges, so workers write without coordination
// and every destination segment comes out in ascending sender order.
func (p *shards) scatterShard(st *state, w, lo, hi int) {
	inbox := st.scratch.inbox
	start := p.work[w].start
	for id := lo; id < hi; id++ {
		for _, env := range p.outbox[id] {
			inbox[start[env.To]] = env
			start[env.To]++
		}
		p.outbox[id] = nil
	}
}

// roundParallel is the pool-backed counterpart of state.round for runs
// without a link filter: per-message counting and scattering fan out;
// only the node-level fault layer and the offset prefix-sum stay
// serial.
func (s *state) roundParallel(r int) error {
	p := s.par
	p.round = r
	p.pool.run(p, jobSend)

	// Serial seam 1: validation errors surface for the lowest
	// offending node, then the node-level fault sees outboxes in node
	// order (it may be stateful) and the crash set updates exactly as
	// in the sequential engine — after the whole send sweep.
	sc := &s.scratch
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
		p.outbox[id] = deliver
		if crash {
			crashedNow = append(crashedNow, id)
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
	}

	p.pool.run(p, jobCount)

	// Serial seam 2: prefix-sum the shard-local destination counts
	// into global segment offsets and disjoint per-(worker,
	// destination) scatter cursors, and merge the shard-local traffic
	// accumulators into the metrics.
	off := int32(0)
	for d := 0; d < s.n; d++ {
		sc.offs[d] = off
		for w := range p.work {
			p.work[w].start[d] = off
			off += p.work[w].counts[d]
		}
	}
	sc.offs[s.n] = off
	sc.sizeInbox(int(off))
	var msgs, bits, byzMsgs, byzBits int64
	for w := range p.work {
		ws := &p.work[w]
		msgs += ws.msgs
		bits += ws.bits
		byzMsgs += ws.byzMsgs
		byzBits += ws.byzBits
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

	p.pool.run(p, jobScatter)
	p.pool.run(p, jobDeliver)
	s.simulated++
	return nil
}

package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"lineartime/internal/scenario"
)

// ErrBusy reports that the job queue is full: the server sheds the
// request (HTTP 429) instead of queueing without bound. Callers retry;
// the closed-loop harness treats it as backpressure.
var ErrBusy = errors.New("serve: job queue full")

// workPool executes scenario runs on a fixed set of workers fed by a
// bounded queue. Each worker runs scenarios sequentially, so engine
// concurrency equals the worker count no matter how many requests are
// in flight, and every run lands on a warm sim.Runtime arena from
// scenario.Execute's sync.Pool (the per-P pool caching means a worker
// goroutine keeps reusing the arena it warmed up).
type workPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
	// run is scenario.Run in production; tests substitute it to gate
	// and count engine runs deterministically.
	run func(scenario.Spec) (*scenario.Report, error)

	workers   int
	rejected  atomic.Int64
	completed atomic.Int64
	errored   atomic.Int64
}

type poolJob struct {
	sp   scenario.Spec
	done chan poolResult
}

type poolResult struct {
	rep *scenario.Report
	err error
}

// newWorkPool starts workers goroutines over a queue of depth slots.
// workers <= 0 defaults to 2, depth <= 0 to 4× the worker count.
func newWorkPool(workers, depth int, run func(scenario.Spec) (*scenario.Report, error)) *workPool {
	if workers <= 0 {
		workers = 2
	}
	if depth <= 0 {
		depth = 4 * workers
	}
	if run == nil {
		run = scenario.Run
	}
	p := &workPool{jobs: make(chan poolJob, depth), run: run, workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workPool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		rep, err := p.run(j.sp)
		if err != nil {
			p.errored.Add(1)
		} else {
			p.completed.Add(1)
		}
		j.done <- poolResult{rep: rep, err: err}
	}
}

// Submit enqueues the spec and blocks until a worker has run it. A
// full queue fails fast with ErrBusy.
func (p *workPool) Submit(sp scenario.Spec) (*scenario.Report, error) {
	j := poolJob{sp: sp, done: make(chan poolResult, 1)}
	select {
	case p.jobs <- j:
	default:
		p.rejected.Add(1)
		return nil, ErrBusy
	}
	r := <-j.done
	return r.rep, r.err
}

// Close drains the queue and stops the workers. Submit must not be
// called after Close.
func (p *workPool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"lineartime/internal/scenario"
	"lineartime/internal/sim"
)

// ErrInterrupted reports a campaign stopped by context cancellation
// (drain, shutdown, user cancel) rather than by its budget. The
// controller's state is checkpointable at that point, and resuming
// from the checkpoint converges to the same final artifact as an
// uninterrupted run.
var ErrInterrupted = errors.New("campaign: interrupted")

// RunFunc evaluates one materialized scenario Spec. The serving layer
// routes it through the daemon's cached worker pool (retrying
// transient backpressure); the CLI uses scenario.Run directly. Either
// way the evaluation lands on scenario.Execute's pooled arenas.
type RunFunc func(ctx context.Context, sp scenario.Spec) (*scenario.Report, error)

// BatchRunFunc evaluates a whole batch of materialized Specs in one
// call: reports[i]/errs[i] belong to sps[i], exactly as if each had
// gone through a RunFunc. The CLI wires scenario.ExecuteBatch here, so
// a batch whose candidates share a sliceable scenario shape rides the
// bit-sliced engine up to 64 candidates per machine word.
type BatchRunFunc func(ctx context.Context, sps []scenario.Spec) ([]*scenario.Report, []error)

// Progress is a point-in-time snapshot of a running campaign, the
// body of the serving layer's polling endpoint.
type Progress struct {
	Wave       int     `json:"wave"`
	Sims       int     `json:"sims"`
	MaxSims    int     `json:"max_sims"`
	Queue      int     `json:"queue"`
	Evaluated  int     `json:"evaluated"`
	Violations int     `json:"violations"`
	Worst      *Result `json:"worst,omitempty"`
}

// Checkpoint is the resumable state of an interrupted campaign: the
// pending queue, the visited set, and every result so far. Because
// refinement decisions depend only on the (deterministically ordered)
// result set — never on completion timing — resuming from any batch
// boundary replays the exact search the uninterrupted campaign would
// have run.
type Checkpoint struct {
	Schema   string      `json:"schema"`
	Campaign Spec        `json:"campaign"`
	Wave     int         `json:"wave"`
	Sims     int         `json:"sims"`
	Queue    []Candidate `json:"queue"`
	Visited  []string    `json:"visited"`
	Results  []Result    `json:"results"`
}

// Controller runs one campaign: a work queue of candidates reconciled
// into results, refined wave by wave. Snapshot and Checkpoint are safe
// to call concurrently with Run.
type Controller struct {
	run RunFunc
	// batchRun, when set, evaluates whole batches in one call instead
	// of fanning candidates across goroutines (SetBatchRun).
	batchRun BatchRunFunc
	conc     int

	mu        sync.Mutex
	spec      Spec
	wave      int
	sims      int
	queue     []Candidate
	visited   map[string]bool
	results   []Result
	truncated string
	// batchHook, when set, observes the checkpoint after every batch
	// (the CLI persists it so a killed process can resume).
	batchHook func(*Checkpoint)
	// meter, when set, receives progress counters at batch and wave
	// boundaries (SetMeter).
	meter *Meter
}

// New builds a controller for the spec, seeding the queue with the
// initial grid over every searched axis. conc caps the in-flight
// evaluations per batch (<= 1 means serial); it affects wall-clock
// time only, never the result.
func New(spec Spec, run RunFunc, conc int) (*Controller, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	c := newController(norm, run, conc)
	sh := shape{n: norm.N, t: norm.T}
	for _, kind := range norm.Kinds {
		c.enqueueLocked(grid(kind, sh), 0)
	}
	if len(c.queue) == 0 {
		return nil, fmt.Errorf("lineartime: campaign fault axes %v yield no candidates at n=%d t=%d", norm.Kinds, norm.N, norm.T)
	}
	return c, nil
}

// Resume rebuilds a controller from a checkpoint.
func Resume(cp *Checkpoint, run RunFunc, conc int) (*Controller, error) {
	if cp.Schema != CheckpointSchema {
		return nil, fmt.Errorf("lineartime: campaign checkpoint schema %q, want %q", cp.Schema, CheckpointSchema)
	}
	norm, err := cp.Campaign.Normalize()
	if err != nil {
		return nil, err
	}
	c := newController(norm, run, conc)
	c.wave = cp.Wave
	c.sims = cp.Sims
	c.results = slices.Clone(cp.Results)
	for _, key := range cp.Visited {
		c.visited[key] = true
	}
	c.queue = make([]Candidate, len(cp.Queue))
	for i, cand := range cp.Queue {
		fm, err := scenario.ParseFault(cand.Fault)
		if err != nil {
			return nil, fmt.Errorf("lineartime: campaign checkpoint queue[%d] fault %q does not parse: %w", i, cand.Fault, err)
		}
		cand.fm = fm
		c.queue[i] = cand
	}
	return c, nil
}

func newController(norm Spec, run RunFunc, conc int) *Controller {
	if conc < 1 {
		conc = 1
	}
	return &Controller{
		run:     run,
		conc:    conc,
		spec:    norm,
		visited: make(map[string]bool),
	}
}

// SetBatchHook installs an observer called with a fresh checkpoint
// after every completed batch. Install before Run.
func (c *Controller) SetBatchHook(fn func(*Checkpoint)) { c.batchHook = fn }

// SetBatchRun installs a batch evaluator used in place of per-candidate
// RunFunc calls. Install before Run. Results are scored identically
// either way, so the search is unaffected — only throughput changes.
func (c *Controller) SetBatchRun(fn BatchRunFunc) { c.batchRun = fn }

// specFor materializes a candidate against the campaign's scenario.
func (c *Controller) specFor(fm scenario.FaultModel) scenario.Spec {
	d, _ := scenario.Lookup(c.spec.Scenario)
	sp := d.Spec(c.spec.N, c.spec.T, c.spec.Seed)
	sp.Fault = fm
	return sp
}

// enqueueLocked adds the models at the given refinement level,
// deduplicating against everything ever enqueued by content address.
func (c *Controller) enqueueLocked(fms []scenario.FaultModel, level int) int {
	added := 0
	for _, fm := range fms {
		key := c.specFor(fm).Key()
		if c.visited[key] {
			continue
		}
		c.visited[key] = true
		c.queue = append(c.queue, Candidate{Fault: fm.CLI(), Level: level, Key: key, fm: fm})
		added++
	}
	return added
}

// refineLocked re-queues the neighbors of the current top-K offenders
// at the next refinement level, returning how many new candidates the
// wave contributed.
func (c *Controller) refineLocked() int {
	top := ranked(c.results)
	if len(top) > c.spec.Budget.TopK {
		top = top[:c.spec.Budget.TopK]
	}
	level := c.wave + 1
	sh := shape{n: c.spec.N, t: c.spec.T}
	added := 0
	for _, r := range top {
		fm, err := scenario.ParseFault(r.Fault)
		if err != nil {
			continue
		}
		added += c.enqueueLocked(neighbors(fm, level, sh), level)
	}
	return added
}

// Run drives the campaign to completion (budget exhausted, space
// exhausted, or wave cap) and returns the frontier artifact. On
// context cancellation it finishes the in-flight batch — so the state
// stays on a deterministic boundary — records it, and returns
// ErrInterrupted; Checkpoint then captures a resumable state.
func (c *Controller) Run(ctx context.Context) (*Frontier, error) {
	start := time.Now()
	for {
		if ctx.Err() != nil {
			return nil, ErrInterrupted
		}
		c.mu.Lock()
		budgetLeft := c.spec.Budget.MaxSims - c.sims
		if budgetLeft <= 0 {
			c.mu.Unlock()
			break
		}
		if ms := c.spec.Budget.MaxWallClockMS; ms > 0 && time.Since(start) > time.Duration(ms)*time.Millisecond {
			c.truncated = "wall-clock"
			c.mu.Unlock()
			break
		}
		if len(c.queue) == 0 {
			if c.wave >= c.spec.Budget.MaxWaves {
				c.mu.Unlock()
				break
			}
			added := c.refineLocked()
			c.wave++
			if c.meter != nil {
				c.meter.Waves.Inc()
			}
			if added == 0 {
				c.mu.Unlock()
				break
			}
		}
		k := min(len(c.queue), budgetLeft, c.conc)
		if c.batchRun != nil {
			// A batch evaluator turns a run of declarative candidates
			// at the head of the queue into word lanes of one
			// bit-sliced engine call, so the batch widens past conc up
			// to the lane capacity. Candidates are still evaluated and
			// scored in queue order and the budget is charged per
			// candidate, so the search — and the frontier artifact —
			// is unchanged; only throughput moves.
			wide := min(len(c.queue), budgetLeft, sim.MaxLanes)
			decl := 0
			for decl < wide && c.queue[decl].fm.Declarative() {
				decl++
			}
			if decl > k {
				k = decl
			}
		}
		batch := slices.Clone(c.queue[:k])
		c.queue = slices.Delete(c.queue, 0, k)
		// Budget is charged at dequeue: the batch always runs to
		// completion, so sims and results stay in lockstep whether or
		// not the campaign is interrupted afterwards.
		c.sims += k
		c.mu.Unlock()

		results := c.evaluate(ctx, batch)
		c.mu.Lock()
		c.results = append(c.results, results...)
		c.mu.Unlock()
		c.meter.meterBatch(results)
		if c.batchHook != nil {
			c.batchHook(c.Checkpoint())
		}
	}
	return c.Frontier(), nil
}

// evaluate reconciles one batch. With a batch evaluator installed the
// whole batch goes out in one call (the sliced path); otherwise all
// candidates are in flight at once (the batch is already capped at
// conc). Results land in batch order either way, so completion timing
// never reaches the search state.
func (c *Controller) evaluate(ctx context.Context, batch []Candidate) []Result {
	out := make([]Result, len(batch))
	if c.batchRun != nil {
		sps := make([]scenario.Spec, len(batch))
		for i := range batch {
			sps[i] = c.specFor(batch[i].fm)
		}
		reps, errs := c.batchRun(ctx, sps)
		for i := range batch {
			out[i] = score(batch[i], reps[i], errs[i])
		}
		return out
	}
	var wg sync.WaitGroup
	for i := range batch {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.evalOne(ctx, batch[i])
		}(i)
	}
	wg.Wait()
	return out
}

// evalOne runs one candidate and scores the outcome.
func (c *Controller) evalOne(ctx context.Context, cand Candidate) Result {
	rep, err := c.run(ctx, c.specFor(cand.fm))
	return score(cand, rep, err)
}

// score turns one candidate's run into a Result, judged by
// scenario.Verdict. A run that exceeds its round budget is the liveness
// violation the campaign is hunting, not an error.
func score(cand Candidate, rep *scenario.Report, err error) Result {
	res := Result{Fault: cand.Fault, Key: cand.Key, Level: cand.Level}
	switch {
	case err == nil:
		res.Rounds = rep.Metrics.Rounds
		res.Messages = rep.Metrics.Messages
		res.Bits = rep.Metrics.Bits
		verdict, violated := scenario.Verdict(rep)
		res.Verdict = verdict
		if violated {
			res.Outcome = OutcomeViolated
		} else {
			res.Outcome = OutcomeOK
		}
	case errors.Is(err, sim.ErrNoTermination):
		res.Outcome = OutcomeNoTermination
		res.Verdict = "did not terminate within the round budget"
	default:
		res.Outcome = OutcomeError
		res.Verdict = err.Error()
	}
	return res
}

// Frontier assembles the artifact from the current state.
func (c *Controller) Frontier() *Frontier {
	c.mu.Lock()
	defer c.mu.Unlock()
	top := ranked(c.results)
	if len(top) > c.spec.Budget.TopK {
		top = top[:c.spec.Budget.TopK]
	}
	violations := 0
	for _, r := range c.results {
		if s := severity(r.Outcome); s == 2 || s == 3 {
			violations++
		}
	}
	return &Frontier{
		Schema:     FrontierSchema,
		Campaign:   c.spec,
		Sims:       c.sims,
		Waves:      c.wave,
		Evaluated:  len(c.results),
		Violations: violations,
		Truncated:  c.truncated,
		Frontier:   top,
	}
}

// Checkpoint captures the resumable state. Call after Run returned
// ErrInterrupted (or from the batch hook); the visited set is
// serialized sorted so checkpoints of equal state are byte-equal.
func (c *Controller) Checkpoint() *Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	visited := make([]string, 0, len(c.visited))
	for key := range c.visited {
		visited = append(visited, key)
	}
	sort.Strings(visited)
	return &Checkpoint{
		Schema:   CheckpointSchema,
		Campaign: c.spec,
		Wave:     c.wave,
		Sims:     c.sims,
		Queue:    slices.Clone(c.queue),
		Visited:  visited,
		Results:  slices.Clone(c.results),
	}
}

// Snapshot reports progress for polling clients.
func (c *Controller) Snapshot() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Progress{
		Wave:      c.wave,
		Sims:      c.sims,
		MaxSims:   c.spec.Budget.MaxSims,
		Queue:     len(c.queue),
		Evaluated: len(c.results),
	}
	var worst *Result
	for i := range c.results {
		r := c.results[i]
		if s := severity(r.Outcome); s == 2 || s == 3 {
			p.Violations++
		}
		if worst == nil || worse(r, *worst) {
			worst = &r
		}
	}
	if worst != nil {
		w := *worst
		p.Worst = &w
	}
	return p
}

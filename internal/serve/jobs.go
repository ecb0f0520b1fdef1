package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lineartime/internal/campaign"
	"lineartime/internal/scenario"
)

// JobsStateSchema versions the daemon's campaign state file, written on
// graceful shutdown and read back on the next start so interrupted
// campaigns resume instead of restarting.
const JobsStateSchema = "lineartime/campaign-jobs/v1"

// The campaign job states. A job is terminal in every state but
// "running"; "interrupted" is terminal for this process yet resumable
// by the next one (its checkpoint rides in the state file).
const (
	JobRunning     = "running"
	JobDone        = "done"
	JobFailed      = "failed"
	JobCancelled   = "cancelled"
	JobInterrupted = "interrupted"
)

// The campaign-run retry policy: transient worker-pool backpressure
// (ErrBusy / HTTP 429 on the wire) retries with capped exponential
// backoff and jitter instead of failing the candidate.
const (
	campaignRetryBase = 10 * time.Millisecond
	campaignRetryCap  = 500 * time.Millisecond
)

// CampaignStatus is the body of the campaign endpoints: one job's
// identity, state and progress, with the frontier artifact attached
// once the campaign is done.
type CampaignStatus struct {
	ID       string            `json:"id"`
	Status   string            `json:"status"`
	Campaign campaign.Spec     `json:"campaign"`
	Progress campaign.Progress `json:"progress"`
	Error    string            `json:"error,omitempty"`
	// Resumable marks an interrupted job whose checkpoint will ride the
	// daemon's state file into the next process.
	Resumable bool            `json:"resumable,omitempty"`
	Frontier  json.RawMessage `json:"frontier,omitempty"`
}

// CampaignList is the body of GET /v1/campaigns.
type CampaignList struct {
	Campaigns []CampaignStatus `json:"campaigns"`
}

// campaignJob is one hosted campaign: the controller, its cancellation
// handle, and the terminal record once the run finishes.
type campaignJob struct {
	id   string
	spec campaign.Spec

	ctx    context.Context
	cancel context.CancelFunc
	ctrl   *campaign.Controller

	mu         sync.Mutex
	status     string
	errMsg     string
	artifact   []byte
	checkpoint *campaign.Checkpoint
	// cancelRequested distinguishes a user DELETE from a server drain;
	// both cancel the context, only the former ends in "cancelled".
	cancelRequested bool
	// progress is the last snapshot, frozen at the terminal transition
	// (and carried for jobs restored without a live controller).
	progress campaign.Progress
}

// snapshot assembles the job's API view.
func (j *campaignJob) snapshot() CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := CampaignStatus{
		ID:        j.id,
		Status:    j.status,
		Campaign:  j.spec,
		Progress:  j.progress,
		Error:     j.errMsg,
		Resumable: j.checkpoint != nil && j.status != JobDone,
	}
	if j.status == JobRunning && j.ctrl != nil {
		st.Progress = j.ctrl.Snapshot()
	}
	if j.status == JobDone {
		st.Frontier = json.RawMessage(j.artifact)
	}
	return st
}

// jobStore hosts the daemon's campaign jobs: a bounded map keyed by
// the campaign's content address, a WaitGroup over the running job
// goroutines, and the root context a drain cancels.
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*campaignJob
	order []string
	max   int

	root     context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	conc     int
	run      campaign.RunFunc
	launched int64
	resumed  int64
}

// JobsStats is what the campaign gauges read of the job store.
type JobsStats struct {
	Capacity, Jobs, Running int
}

func newJobStore(maxJobs, conc int, run campaign.RunFunc) *jobStore {
	if maxJobs <= 0 {
		maxJobs = 8
	}
	if conc <= 0 {
		conc = 1
	}
	root, cancel := context.WithCancel(context.Background())
	return &jobStore{
		jobs:   make(map[string]*campaignJob),
		max:    maxJobs,
		root:   root,
		cancel: cancel,
		conc:   conc,
		run:    run,
	}
}

// get returns the job by id.
func (st *jobStore) get(id string) (*campaignJob, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots every job in admission order.
func (st *jobStore) list() []CampaignStatus {
	st.mu.Lock()
	ids := append([]string(nil), st.order...)
	jobs := make([]*campaignJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, st.jobs[id])
	}
	st.mu.Unlock()
	out := make([]CampaignStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// insert admits the job, evicting the oldest terminal job when the
// store is full. It returns errJobExists if the id is already hosted
// (the caller serves the existing job) and ErrBusy when every slot
// holds a running job.
func (st *jobStore) insert(j *campaignJob, resumed bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.jobs[j.id]; ok {
		return errJobExists
	}
	if len(st.jobs) >= st.max {
		evicted := false
		for i, old := range st.order {
			prev := st.jobs[old]
			prev.mu.Lock()
			terminal := prev.status != JobRunning
			prev.mu.Unlock()
			if terminal {
				delete(st.jobs, old)
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return fmt.Errorf("%w: all %d campaign slots are running", ErrBusy, st.max)
		}
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	if j.status == JobRunning {
		if resumed {
			st.resumed++
		} else {
			st.launched++
		}
	}
	return nil
}

// errJobExists signals admit found the id already hosted (POST dedup).
var errJobExists = errors.New("serve: campaign already exists")

// launch starts the controller's run goroutine for the job.
func (st *jobStore) launch(j *campaignJob) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_, err := j.ctrl.Run(j.ctx)
		j.finish(err)
	}()
}

// finish records the run outcome on the job.
func (j *campaignJob) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = j.ctrl.Snapshot()
	switch {
	case err == nil:
		fr := j.ctrl.Frontier()
		body, encErr := fr.Encode()
		if encErr != nil {
			j.status = JobFailed
			j.errMsg = encErr.Error()
			return
		}
		j.status = JobDone
		j.artifact = body
		j.checkpoint = nil
	case errors.Is(err, campaign.ErrInterrupted):
		j.checkpoint = j.ctrl.Checkpoint()
		if j.cancelRequested {
			j.status = JobCancelled
		} else {
			j.status = JobInterrupted
		}
	default:
		j.status = JobFailed
		j.errMsg = err.Error()
	}
}

// drain cancels every running job and waits for their goroutines to
// reach a terminal state (running campaigns finish their in-flight
// batch and checkpoint as "interrupted"). It must complete before the
// worker pool closes: an interrupted controller stops submitting only
// once its batch lands.
func (st *jobStore) drain() {
	st.cancel()
	st.wg.Wait()
}

// jobState is one job in the daemon's state file.
type jobState struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	Campaign   campaign.Spec   `json:"campaign"`
	Error      string          `json:"error,omitempty"`
	Artifact   json.RawMessage `json:"artifact,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// jobsStateFile is the daemon's campaign state file.
type jobsStateFile struct {
	Schema string     `json:"schema"`
	Jobs   []jobState `json:"jobs"`
}

// DrainJobs cancels all running campaigns and waits for them to
// checkpoint. Call on SIGTERM before SaveJobs and Close.
func (s *Server) DrainJobs() { s.jobs.drain() }

// SaveJobs writes the campaign job state to path (atomically, via a
// temp file rename) so RestoreJobs in the next process resumes
// interrupted campaigns and replays terminal results.
func (s *Server) SaveJobs(path string) error {
	s.jobs.mu.Lock()
	ids := append([]string(nil), s.jobs.order...)
	jobs := make([]*campaignJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs.jobs[id])
	}
	s.jobs.mu.Unlock()

	file := jobsStateFile{Schema: JobsStateSchema}
	for _, j := range jobs {
		j.mu.Lock()
		stj := jobState{ID: j.id, Status: j.status, Campaign: j.spec, Error: j.errMsg}
		if j.status == JobRunning {
			// Defensive: a job still running at save time (drain was
			// skipped) is persisted as restartable-from-scratch.
			stj.Status = JobInterrupted
		}
		if j.artifact != nil {
			stj.Artifact = json.RawMessage(j.artifact)
		}
		if j.checkpoint != nil {
			blob, err := json.Marshal(j.checkpoint)
			if err != nil {
				j.mu.Unlock()
				return fmt.Errorf("serve: marshal checkpoint of %s: %w", j.id, err)
			}
			stj.Checkpoint = blob
		}
		j.mu.Unlock()
		file.Jobs = append(file.Jobs, stj)
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// RestoreJobs loads a state file written by SaveJobs: terminal jobs
// come back as served records, interrupted jobs resume from their
// checkpoints (or restart from scratch if the checkpoint is missing).
// A missing file is not an error — it is the first boot.
func (s *Server) RestoreJobs(path string) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var file jobsStateFile
	if err := json.Unmarshal(blob, &file); err != nil {
		return fmt.Errorf("serve: campaign state file %s: %w", path, err)
	}
	if file.Schema != JobsStateSchema {
		return fmt.Errorf("serve: campaign state file schema %q, want %q", file.Schema, JobsStateSchema)
	}
	for _, stj := range file.Jobs {
		j := &campaignJob{id: stj.ID, spec: stj.Campaign, status: stj.Status, errMsg: stj.Error}
		if stj.Artifact != nil {
			j.artifact = append([]byte(nil), stj.Artifact...)
		}
		if stj.Checkpoint != nil {
			var cp campaign.Checkpoint
			if err := json.Unmarshal(stj.Checkpoint, &cp); err != nil {
				return fmt.Errorf("serve: checkpoint of restored campaign %s: %w", stj.ID, err)
			}
			j.checkpoint = &cp
		}
		if stj.Status == JobInterrupted || stj.Status == JobRunning {
			var ctrl *campaign.Controller
			var cErr error
			if j.checkpoint != nil {
				ctrl, cErr = campaign.Resume(j.checkpoint, s.jobs.run, s.jobs.conc)
			} else {
				ctrl, cErr = campaign.New(j.spec, s.jobs.run, s.jobs.conc)
			}
			if cErr != nil {
				j.status = JobFailed
				j.errMsg = cErr.Error()
			} else {
				ctrl.SetMeter(s.metrics.campaign)
				j.ctx, j.cancel = context.WithCancel(s.jobs.root)
				j.ctrl = ctrl
				j.status = JobRunning
			}
		}
		if err := s.jobs.insert(j, true); err != nil {
			if errors.Is(err, errJobExists) {
				continue
			}
			return err
		}
		if j.status == JobRunning {
			s.jobs.launch(j)
		}
	}
	return nil
}

// jobsStats snapshots the campaign store counters.
func (s *Server) jobsStats() JobsStats {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	st := JobsStats{Capacity: s.jobs.max, Jobs: len(s.jobs.jobs)}
	for _, j := range s.jobs.jobs {
		j.mu.Lock()
		if j.status == JobRunning {
			st.Running++
		}
		j.mu.Unlock()
	}
	return st
}

// campaignRun is the serving layer's RunFunc: every campaign
// evaluation takes the same cached path as POST /v1/run — cache
// lookup, coalescing, bounded worker pool — so revisited fault points
// dedup across campaigns and interactive traffic. Transient pool
// backpressure retries with capped exponential backoff plus jitter;
// context cancellation (drain, user cancel) cuts the retry loop.
func (s *Server) campaignRun(ctx context.Context, sp scenario.Spec) (*scenario.Report, error) {
	backoff := campaignRetryBase
	for {
		body, _, _, err := s.runCached(sp)
		if err == nil {
			var rr RunResponse
			if derr := json.Unmarshal(body, &rr); derr != nil {
				return nil, derr
			}
			return rr.Report, nil
		}
		if !errors.Is(err, ErrBusy) {
			return nil, err
		}
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		if backoff < campaignRetryCap {
			backoff *= 2
		}
	}
}

func (s *Server) handleCampaignPost(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&spec); err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			code:    "bad_json",
			message: "lineartime: request body is not valid JSON: " + err.Error(),
		})
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, err)
		return
	}
	id := norm.ID()
	if j, ok := s.jobs.get(id); ok {
		// Same campaign, same job: POST is idempotent by content address.
		writeJSON(w, j.snapshot())
		return
	}
	ctrl, err := campaign.New(norm, s.jobs.run, s.jobs.conc)
	if err != nil {
		writeError(w, err)
		return
	}
	ctrl.SetMeter(s.metrics.campaign)
	j := &campaignJob{id: id, spec: norm, status: JobRunning, ctrl: ctrl}
	j.ctx, j.cancel = context.WithCancel(s.jobs.root)
	if err := s.jobs.insert(j, false); err != nil {
		if errors.Is(err, errJobExists) {
			if existing, ok := s.jobs.get(id); ok {
				writeJSON(w, existing.snapshot())
				return
			}
		}
		writeError(w, err)
		return
	}
	s.jobs.launch(j)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	body, _ := json.Marshal(j.snapshot())
	w.Write(body)
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &apiError{
			status:  http.StatusNotFound,
			code:    "unknown_campaign",
			message: fmt.Sprintf("lineartime: no campaign %q (see GET /v1/campaigns)", r.PathValue("id")),
		})
		return
	}
	writeJSON(w, j.snapshot())
}

func (s *Server) handleCampaignList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, CampaignList{Campaigns: s.jobs.list()})
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &apiError{
			status:  http.StatusNotFound,
			code:    "unknown_campaign",
			message: fmt.Sprintf("lineartime: no campaign %q (see GET /v1/campaigns)", r.PathValue("id")),
		})
		return
	}
	j.mu.Lock()
	if j.status == JobRunning {
		j.cancelRequested = true
		j.cancel()
	}
	j.mu.Unlock()
	writeJSON(w, j.snapshot())
}

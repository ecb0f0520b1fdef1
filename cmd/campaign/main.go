// Command campaign drives chaos campaigns (internal/campaign): a
// budgeted, deterministic search over the fault space of a registry
// scenario for the adversary schedules that hurt the most. It runs in
// two modes —
//
//	local (default): evaluate candidates in-process. With -state, the
//	campaign checkpoints after every batch and a re-invocation with
//	the same flags resumes from the checkpoint; either way the final
//	frontier artifact is byte-identical to an uninterrupted run.
//
//	remote (-addr): POST the campaign to a linearsimd daemon as an
//	async job, poll its progress, and write the frontier artifact on
//	completion. -nowait just prints the job id; -watch polls an
//	existing job by id.
//
// -validate checks a frontier artifact file against the schema and
// exits; CI uses it to gate committed artifacts.
//
// Examples:
//
//	campaign -scenario consensus/few-crashes -n 96 -t 16 -sims 48 -o frontier.json
//	campaign -addr http://127.0.0.1:8372 -scenario gossip/expander -n 96 -t 16 -sims 48
//	campaign -validate testdata/frontier_consensus_few-crashes.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lineartime/internal/campaign"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		scen     = fs.String("scenario", "consensus/few-crashes", "registry scenario to attack")
		n        = fs.Int("n", 96, "scenario size")
		t        = fs.Int("t", 16, "scenario fault bound")
		seed     = fs.Uint64("seed", 1, "run seed shared by every evaluation")
		sims     = fs.Int("sims", 48, "total evaluation budget")
		waves    = fs.Int("waves", 0, "refinement wave cap (0 = default 4)")
		topk     = fs.Int("topk", 0, "frontier size and refinement fan (0 = default 4)")
		kinds    = fs.String("kinds", "", "comma-separated fault axes to search (default: all of omission,partition,delay,crash)")
		wallMS   = fs.Int("wall-ms", 0, "wall-clock budget in ms (0 = none); a cut campaign is marked truncated")
		conc     = fs.Int("conc", 0, "local evaluation concurrency (0 = GOMAXPROCS)")
		out      = fs.String("o", "", "frontier artifact output file ('' = stdout)")
		state    = fs.String("state", "", "local checkpoint file: written per batch, resumed when present")
		addr     = fs.String("addr", "", "daemon base URL: run the campaign remotely as an async job")
		nowait   = fs.Bool("nowait", false, "with -addr: submit, print the job id, exit")
		watch    = fs.String("watch", "", "with -addr: poll this existing job id instead of submitting")
		validate = fs.String("validate", "", "validate a frontier artifact file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q; %s takes flags only", fs.Arg(0), fs.Name())
	}

	if *validate != "" {
		blob, err := os.ReadFile(*validate)
		if err != nil {
			return err
		}
		if err := campaign.ValidateFrontier(blob); err != nil {
			return fmt.Errorf("%s: %w", *validate, err)
		}
		fmt.Fprintf(stdout, "%s: valid %s artifact\n", *validate, campaign.FrontierSchema)
		return nil
	}

	spec := campaign.Spec{
		Scenario: *scen,
		N:        *n,
		T:        *t,
		Seed:     *seed,
		Budget: campaign.Budget{
			MaxSims:        *sims,
			MaxWaves:       *waves,
			TopK:           *topk,
			MaxWallClockMS: *wallMS,
		},
	}
	if *kinds != "" {
		spec.Kinds = strings.Split(*kinds, ",")
	}

	if *addr != "" {
		return runRemote(stdout, *addr, spec, *out, *nowait, *watch)
	}
	if *watch != "" || *nowait {
		return errors.New("-watch and -nowait need -addr")
	}
	return runLocal(stdout, spec, *out, *state, *conc)
}

// runLocal drives the campaign in-process. SIGINT/SIGTERM interrupt
// it at the next batch boundary; with -state the checkpoint survives
// to the next invocation.
func runLocal(stdout io.Writer, spec campaign.Spec, out, state string, conc int) error {
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	localRun := func(_ context.Context, sp scenario.Spec) (*scenario.Report, error) {
		return scenario.Run(sp)
	}

	var ctrl *campaign.Controller
	if state != "" {
		if blob, err := os.ReadFile(state); err == nil {
			var cp campaign.Checkpoint
			if err := json.Unmarshal(blob, &cp); err != nil {
				return fmt.Errorf("checkpoint %s: %w", state, err)
			}
			norm, err := spec.Normalize()
			if err != nil {
				return err
			}
			if cp.Campaign.ID() != norm.ID() {
				return fmt.Errorf("checkpoint %s belongs to campaign %s, not %s (different flags?)", state, cp.Campaign.ID(), norm.ID())
			}
			ctrl, err = campaign.Resume(&cp, localRun, conc)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "resuming %s from %s: %d/%d sims done\n", norm.ID(), state, cp.Sims, norm.Budget.MaxSims)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if ctrl == nil {
		var err error
		ctrl, err = campaign.New(spec, localRun, conc)
		if err != nil {
			return err
		}
	}
	// Whole batches go through the scenario batch path: sliceable
	// candidate sets (e.g. flooding under the searched fault axes) ride
	// the bit-sliced engine up to 64 candidates per machine word, the
	// rest take its scalar fallback pool.
	ctrl.SetBatchRun(func(_ context.Context, sps []scenario.Spec) ([]*scenario.Report, []error) {
		return scenario.ExecuteBatch(sps)
	})
	if state != "" {
		ctrl.SetBatchHook(func(cp *campaign.Checkpoint) {
			if err := writeCheckpoint(state, cp); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: checkpoint: %v\n", err)
			}
		})
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	fr, err := ctrl.Run(ctx)
	if errors.Is(err, campaign.ErrInterrupted) {
		if state != "" {
			if err := writeCheckpoint(state, ctrl.Checkpoint()); err != nil {
				return err
			}
			p := ctrl.Snapshot()
			fmt.Fprintf(stdout, "interrupted at %d/%d sims; checkpoint saved to %s — rerun to resume\n", p.Sims, p.MaxSims, state)
			return nil
		}
		return errors.New("interrupted (no -state file, progress lost)")
	}
	if err != nil {
		return err
	}
	if state != "" {
		// The campaign is complete; a stale checkpoint would make the
		// next invocation replay it instead of searching fresh flags.
		os.Remove(state)
	}
	return writeArtifact(stdout, out, fr)
}

// writeCheckpoint atomically persists a checkpoint.
func writeCheckpoint(path string, cp *campaign.Checkpoint) error {
	blob, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeArtifact(stdout io.Writer, out string, fr *campaign.Frontier) error {
	data, err := fr.Encode()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	return nil
}

// runRemote submits the campaign to a daemon (or attaches to an
// existing job with -watch) and polls it to completion.
func runRemote(stdout io.Writer, addr string, spec campaign.Spec, out string, nowait bool, watch string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	id := watch
	if id == "" {
		blob, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		resp, err := client.Post(addr+"/v1/campaigns", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			return err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/campaigns: status %d: %s", resp.StatusCode, body)
		}
		var st serve.CampaignStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		id = st.ID
		if nowait {
			fmt.Fprintln(stdout, id)
			return nil
		}
		fmt.Fprintf(stdout, "campaign %s accepted (%s)\n", id, st.Status)
	}

	for {
		resp, err := client.Get(addr + "/v1/campaigns/" + id)
		if err != nil {
			return err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/campaigns/%s: status %d: %s", id, resp.StatusCode, body)
		}
		var st serve.CampaignStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		switch st.Status {
		case serve.JobRunning:
			time.Sleep(200 * time.Millisecond)
		case serve.JobDone:
			var fr campaign.Frontier
			if err := json.Unmarshal(st.Frontier, &fr); err != nil {
				return err
			}
			return writeArtifact(stdout, out, &fr)
		case serve.JobInterrupted:
			return fmt.Errorf("campaign %s was interrupted by a daemon shutdown; it resumes on the next daemon start", id)
		default:
			return fmt.Errorf("campaign %s ended %s: %s", id, st.Status, st.Error)
		}
	}
}

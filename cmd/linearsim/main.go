// Command linearsim runs any registered scenario of the library on a
// simulated synchronous network and prints the paper's two performance
// metrics (rounds, communication) together with the correctness
// verdicts. The -problem/-algo flags resolve to a scenario registry
// name (internal/scenario); -list enumerates the registry.
//
// Any registered fault model can be applied from the CLI with -fault
// (kind[:key=value,...]); -list enumerates the scenarios and the fault
// kinds with their parameter spellings.
//
// Examples:
//
//	linearsim -problem consensus -algo few-crashes -n 200 -t 40 -crashes 40
//	linearsim -problem consensus -algo single-port -n 100 -t 20
//	linearsim -problem consensus -n 200 -t 40 -fault omission:rate=0.05
//	linearsim -problem gossip -n 150 -t 30 -fault delay:d=2
//	linearsim -problem checkpoint -n 150 -t 30 -fault partition:from=1,to=4
//	linearsim -problem byzantine -n 100 -t 10 -byz equivocate -byzcount 10
//	linearsim -problem consensus -algo flooding -n 100 -t 20 -crashes 20 -seeds 64
//	linearsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"lineartime/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "linearsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("linearsim", flag.ContinueOnError)
	var (
		problem  = fs.String("problem", "consensus", "consensus | gossip | checkpoint | byzantine")
		algo     = fs.String("algo", "few-crashes", "consensus algorithm: few-crashes | many-crashes | flooding | single-port | early-stopping | rotating-coordinator")
		n        = fs.Int("n", 100, "number of nodes")
		t        = fs.Int("t", 20, "fault bound")
		seed     = fs.Uint64("seed", 1, "deterministic seed")
		crashes  = fs.Int("crashes", 0, "random crashes to inject (≤ t)")
		horizon  = fs.Int("horizon", 64, "last round at which random crashes may happen")
		baseline = fs.Bool("baseline", false, "run the comparator instead of the paper's algorithm")
		byz      = fs.String("byz", "silence", "byzantine strategy: silence | equivocate | spam")
		byzCount = fs.Int("byzcount", 0, "number of corrupted nodes (byzantine problem)")
		ones     = fs.Int("ones", -1, "consensus: number of nodes with input 1 (-1 = every third)")
		trace    = fs.Bool("trace", false, "attach the run tracer: per-stage timings plus a transcript summary (any scenario); combines with -json")
		list     = fs.Bool("list", false, "list the registered scenarios and fault models, then exit")
		faultArg = fs.String("fault", "", "fault model, kind[:key=value,...] (see -list); overrides -crashes")
		jsonOut  = fs.Bool("json", false, "emit the run as the {key, report} JSON envelope linearsimd serves")
		seeds    = fs.Int("seeds", 1, "run the scenario under this many consecutive seeds (starting at -seed) and print a summary; sliceable scenarios ride the bit-sliced engine 64 seeds per machine word")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return listScenarios()
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if *seeds > 1 {
		if *jsonOut {
			return fmt.Errorf("-json emits a single run envelope; it is not available with -seeds > 1")
		}
		if *trace {
			return fmt.Errorf("-trace follows a single run; it is not available with -seeds > 1")
		}
	}
	out := output{json: *jsonOut, trace: *trace}

	fault := scenario.FaultModel{}
	if *crashes > 0 {
		fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: *crashes, Horizon: *horizon}
	}
	if *faultArg != "" {
		f, err := scenario.ParseFault(*faultArg)
		if err != nil {
			return err
		}
		fault = f
	}

	switch *problem {
	case "consensus":
		return runConsensus(*algo, *n, *t, *ones, *baseline, *seed, fault, out, *seeds)
	case "gossip":
		return runGossip(*n, *t, *baseline, *seed, fault, out, *seeds)
	case "checkpoint":
		return runCheckpoint(*n, *t, *baseline, *seed, fault, out, *seeds)
	case "byzantine":
		if *faultArg != "" {
			return fmt.Errorf("the byzantine problem configures its faults with -byz/-byzcount, not -fault")
		}
		return runByzantine(*n, *t, *byz, *byzCount, *baseline, *seed, out, *seeds)
	default:
		return fmt.Errorf("unknown problem %q", *problem)
	}
}

// runSeedsSummary fans one spec across consecutive seeds through
// scenario.RunSeeds — where the scenario is sliceable the seeds ride
// the bit-sliced engine a machine word at a time — and prints how many
// runs got each scenario.Verdict, plus mean costs over the successful
// runs.
func runSeedsSummary(kind string, sp scenario.Spec, seeds int) error {
	list := make([]uint64, seeds)
	for i := range list {
		list[i] = sp.Seed + uint64(i)
	}
	reports, errs := scenario.RunSeeds(sp, list)
	counts := make(map[string]int)
	okRuns := 0
	var rounds, msgs, bits float64
	for i := range reports {
		if errs[i] != nil {
			counts["error"]++
			continue
		}
		r := reports[i]
		okRuns++
		rounds += float64(r.Metrics.Rounds)
		msgs += float64(r.Metrics.Messages)
		bits += float64(r.Metrics.Bits)
		sp.Seed = list[i]
		verdict, _ := scenario.Verdict(sp, r)
		counts[verdict]++
	}
	fmt.Printf("%-10s n=%d t=%d seeds=%d (%d..%d)\n", kind, sp.N, sp.T, seeds, list[0], list[len(list)-1])
	labels := make([]string, 0, len(counts))
	for label := range counts {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	fmt.Println("outcomes:")
	for _, label := range labels {
		fmt.Printf("  %-30s %d/%d\n", label, counts[label], seeds)
	}
	if okRuns > 0 {
		k := float64(okRuns)
		fmt.Printf("mean over %d runs:\n", okRuns)
		fmt.Printf("  rounds:    %.1f\n", rounds/k)
		fmt.Printf("  messages:  %.1f\n", msgs/k)
		fmt.Printf("  bits:      %.1f\n", bits/k)
	}
	return nil
}

// listScenarios prints the scenario registry and the fault-model
// kinds with their -fault spellings.
func listScenarios() error {
	fmt.Println("scenarios:")
	for _, name := range scenario.Names() {
		d := scenario.MustLookup(name)
		fmt.Printf("  %-34s %s\n", d.Name, d.About)
	}
	fmt.Println("\nfault models (-fault kind[:key=value,...]):")
	for _, u := range scenario.FaultUsages() {
		fmt.Printf("  %-44s %s\n", u.Spec, u.About)
	}
	return nil
}

// scenarioForAlgorithm resolves the -algo flag to a registry name.
func scenarioForAlgorithm(name string, baseline bool) (scenario.Definition, error) {
	if baseline {
		return scenario.MustLookup("consensus/flooding"), nil
	}
	switch name {
	case "few-crashes", "many-crashes", "flooding", "single-port", "early-stopping", "rotating-coordinator":
		return scenario.MustLookup("consensus/" + name), nil
	default:
		return scenario.Definition{}, fmt.Errorf("unknown algorithm %q", name)
	}
}

func runConsensus(algoName string, n, t, ones int, baseline bool, seed uint64, fault scenario.FaultModel, out output, seeds int) error {
	def, err := scenarioForAlgorithm(algoName, baseline)
	if err != nil {
		return err
	}
	sp := def.Spec(n, t, seed)
	sp.Fault = fault
	if ones >= 0 {
		inputs := make([]bool, n)
		for i := range inputs {
			inputs[i] = i < ones
		}
		sp.BoolInputs = inputs
	}
	if seeds > 1 {
		return runSeedsSummary(def.Name, sp, seeds)
	}
	return finishRun(sp, out, func(r *scenario.Report) {
		fmt.Printf("consensus  algo=%-12s n=%d t=%d\n", r.Algorithm, r.N, r.T)
		printMetrics(r.Metrics)
		fmt.Printf("crashed:   %d nodes\n", len(r.Crashed))
		fmt.Printf("agreement: %v   validity: %v\n", r.Consensus.Agreement, r.Consensus.Validity)
	})
}

func runGossip(n, t int, baseline bool, seed uint64, fault scenario.FaultModel, out output, seeds int) error {
	name, kind := "gossip/expander", "gossip(§5)"
	if baseline {
		name, kind = "gossip/all-to-all", "gossip(all-to-all)"
	}
	def := scenario.MustLookup(name)
	sp := def.Spec(n, t, seed)
	sp.Fault = fault
	rumors := make([]uint64, n)
	for i := range rumors {
		rumors[i] = uint64(1000 + i)
	}
	sp.Rumors = rumors
	if seeds > 1 {
		return runSeedsSummary(kind, sp, seeds)
	}
	return finishRun(sp, out, func(r *scenario.Report) {
		fmt.Printf("%-10s n=%d t=%d\n", kind, r.N, r.T)
		printMetrics(r.Metrics)
		fmt.Printf("crashed:   %d nodes\n", len(r.Crashed))
		fmt.Printf("complete:  %v\n", r.Gossip.Complete)
	})
}

func runCheckpoint(n, t int, baseline bool, seed uint64, fault scenario.FaultModel, out output, seeds int) error {
	name, kind := "checkpoint/expander", "checkpoint(§6)"
	if baseline {
		name, kind = "checkpoint/direct", "checkpoint(direct)"
	}
	def := scenario.MustLookup(name)
	sp := def.Spec(n, t, seed)
	sp.Fault = fault
	if seeds > 1 {
		return runSeedsSummary(kind, sp, seeds)
	}
	return finishRun(sp, out, func(r *scenario.Report) {
		fmt.Printf("%-10s n=%d t=%d\n", kind, r.N, r.T)
		printMetrics(r.Metrics)
		fmt.Printf("crashed:   %d nodes\n", len(r.Crashed))
		fmt.Printf("agreement: %v   extant set size: %d\n", r.Checkpoint.Agreement, len(r.Checkpoint.ExtantSet))
	})
}

func runByzantine(n, t int, strategy string, count int, baseline bool, seed uint64, out output, seeds int) error {
	var strat scenario.ByzantineStrategy
	switch strategy {
	case "silence":
		strat = scenario.Silence
	case "equivocate":
		strat = scenario.Equivocate
	case "spam":
		strat = scenario.Spam
	default:
		return fmt.Errorf("unknown byzantine strategy %q", strategy)
	}
	if count > t {
		count = t
	}
	corrupted := make([]int, 0, count)
	for i := 0; i < count; i++ {
		corrupted = append(corrupted, i)
	}
	name, kind := "byzantine/ab-consensus", "ab-consensus(§7)"
	if baseline {
		name, kind = "byzantine/dolev-strong-all", "dolev-strong-all"
	}
	def := scenario.MustLookup(name)
	sp := def.Spec(n, t, seed)
	inputs := make([]uint64, n)
	for i := range inputs {
		inputs[i] = uint64(100 + i)
	}
	sp.Values = inputs
	if count > 0 {
		sp.Fault = scenario.FaultModel{Kind: scenario.ByzantineFaults, Strategy: strat, Corrupted: corrupted}
	}
	if seeds > 1 {
		return runSeedsSummary(kind, sp, seeds)
	}
	return finishRun(sp, out, func(r *scenario.Report) {
		fmt.Printf("%-10s n=%d t=%d little=%d corrupted=%d (%s)\n", kind, r.N, r.T, r.Byzantine.L, count, strategy)
		printMetrics(r.Metrics)
		fmt.Printf("agreement: %v   byz messages: %d\n", r.Byzantine.Agreement, r.Metrics.ByzMessages)
	})
}

func printMetrics(m scenario.Metrics) {
	fmt.Printf("rounds:    %d\n", m.Rounds)
	fmt.Printf("messages:  %d (non-faulty)\n", m.Messages)
	fmt.Printf("bits:      %d\n", m.Bits)
	if len(m.PerPart) > 0 {
		parts := make([]string, 0, len(m.PerPart))
		for p := range m.PerPart {
			parts = append(parts, p)
		}
		sort.Strings(parts)
		fmt.Println("per part:")
		for _, p := range parts {
			fmt.Printf("  %-16s %d\n", p, m.PerPart[p])
		}
	}
}

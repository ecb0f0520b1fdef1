package experiments

import (
	"fmt"
	"math"

	"lineartime/internal/scenario"
)

// boundary returns n / lg^k(n), the paper's optimality-range rules.
func boundary(n, k int) int {
	lg := math.Log2(float64(n))
	return int(float64(n) / math.Pow(lg, float64(k)))
}

// The Table 1 boundary rules: the largest t of each row's range. The
// consensus stacks need 5t ≤ n, so n/lg n is clamped to n/5.
func nOverLg(n int) int  { return min(boundary(n, 1), n/5) }
func nOverLg2(n int) int { return max(boundary(n, 2), 1) }
func sqrtHalf(n int) int { return max(int(math.Sqrt(float64(n))/2), 1) }

// randomCrashes crashes t random nodes by round horizon.
func randomCrashes(t, horizon int) scenario.FaultModel {
	return scenario.FaultModel{Kind: scenario.RandomCrashes, Count: t, Horizon: horizon}
}

// byzantineFault corrupts nodes 0..t-1 under strategy s.
func byzantineFault(s scenario.ByzantineStrategy, t int) scenario.FaultModel {
	corrupted := make([]int, t)
	for i := range corrupted {
		corrupted[i] = i
	}
	return scenario.FaultModel{Kind: scenario.ByzantineFaults, Strategy: s, Corrupted: corrupted}
}

// table1Row is one row of the paper's Table 1: a registry scenario at
// its claimed optimality boundary t.
type table1Row struct {
	faultType, problem, rangeOfT string
	scenario                     string
	t                            func(n int) int
	// fault overrides the registry row's fault model at t; nil keeps it.
	fault func(t int) scenario.FaultModel
	// bits selects the communication metric: bits for the consensus
	// rows, messages otherwise.
	bits bool
}

// table1 is Table 1 in paper order: fault type, problem, range of t,
// registry row, t rule, fault override, bits.
var table1 = []table1Row{
	{"crash", "consensus (Few-Crashes, §4)", "t = O(n/log n)", "consensus/few-crashes", nOverLg,
		func(t int) scenario.FaultModel { return randomCrashes(t, 5*t) }, true},
	{"crash", "consensus single-port (§8)", "t = O(n/log n)", "consensus/single-port", nOverLg, nil, true},
	{"crash", "gossip (§5)", "t = O(n/log² n)", "gossip/expander", nOverLg2,
		func(t int) scenario.FaultModel { return randomCrashes(t, 40) }, false},
	{"crash", "gossip single-port (§8)", "t = O(n/log² n)", "gossip/expander/single-port", nOverLg2, nil, false},
	{"crash", "checkpointing (§6)", "t = O(n/log² n)", "checkpoint/expander", nOverLg2,
		func(t int) scenario.FaultModel { return randomCrashes(t, 40) }, false},
	{"crash", "checkpointing single-port (§8)", "t = O(n/log² n)", "checkpoint/expander/single-port", nOverLg2, nil, false},
	{"auth. Byzantine", "consensus (AB-Consensus, §7)", "t = O(√n)", "byzantine/ab-consensus", sqrtHalf,
		func(t int) scenario.FaultModel { return byzantineFault(scenario.Equivocate, t) }, false},
}

// measure runs the row at size n, checks the run held, and returns its
// t, rounds and communication.
func (rw table1Row) measure(n int) (t, rounds int, comm int64, err error) {
	t = rw.t(n)
	sp := scenario.MustLookup(rw.scenario).Spec(n, t, 1)
	if rw.fault != nil {
		sp.Fault = rw.fault(t)
	}
	rep, err := scenario.Run(sp)
	if err == nil {
		err = held(sp, rep)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	comm = rep.Metrics.Messages
	if rw.bits {
		comm = rep.Metrics.Bits
	}
	return t, rep.Metrics.Rounds, comm, nil
}

// t1 reproduces Table 1 empirically: each row measured at n/2 and n at
// its boundary t, with the growth exponents of both metrics.
func t1() Experiment {
	return Experiment{
		ID:    "T1",
		Title: "Table 1 — linear time and communication at the claimed ranges of t",
		Sections: func(quick bool) []Section {
			n := 1024
			if quick {
				n = 128
			}
			pts := make([]Point, len(table1))
			for i, rw := range table1 {
				pts[i] = Point{Run: func() (string, error) {
					_, r1, c1, err := rw.measure(n / 2)
					if err != nil {
						return "", err
					}
					t, r2, c2, err := rw.measure(n)
					if err != nil {
						return "", err
					}
					// Growth exponents: log2 of the ratio when n doubles.
					return fmt.Sprintf("| %s | %s | %s | %d | %d | %d | %d | %.2f | %.2f |",
						rw.faultType, rw.problem, rw.rangeOfT, n, t, r2, c2,
						math.Log2(float64(r2)/float64(r1)), math.Log2(float64(c2)/float64(c1))), nil
				}}
			}
			return []Section{{
				Preamble: "Each row at its boundary t, measured at n/2 and n; comm is bits for the consensus rows, messages otherwise",
				Header:   "| fault type | problem | range of t | n | t | rounds | comm | r-growth | c-growth |",
				Sep:      "|------------|---------|------------|---|---|--------|------|----------|----------|",
				Footer:   "Claim: r-growth and c-growth, log2 of each metric's ratio when n doubles, stay ≤ ~1.2 (linear scaling). Sizes below ~512 sit in the constant-dominated regime and overstate growth.",
				Points:   pts,
			}}
		},
	}
}

package consensus

import (
	"testing"
	"testing/quick"

	"lineartime/internal/crash"
	"lineartime/internal/rng"
	"lineartime/internal/sim"
)

// Property-based safety: for every generated (inputs, crash schedule)
// pair, agreement and validity must hold for the baseline protocols.
// These protocols are cheap enough to check hundreds of adversaries.

type schedCase struct {
	inputs []bool
	events []crash.Event
}

func genCase(seed uint64, n, t, horizon int) schedCase {
	r := rng.New(seed)
	c := schedCase{inputs: make([]bool, n)}
	for i := range c.inputs {
		c.inputs[i] = r.Intn(2) == 1
	}
	f := r.Intn(t + 1)
	perm := r.Perm(n)
	for i := 0; i < f; i++ {
		c.events = append(c.events, crash.Event{
			Node:  perm[i],
			Round: r.Intn(horizon),
			Keep:  r.Intn(5) - 1, // -1..3: full through tiny prefixes
		})
	}
	return c
}

func checkSafety(t *testing.T, label string, c schedCase, ms []interface {
	Decision() (bool, bool)
}, res *sim.Result) bool {
	t.Helper()
	any0, any1 := false, false
	for _, in := range c.inputs {
		if in {
			any1 = true
		} else {
			any0 = true
		}
	}
	var agreed *bool
	for i, m := range ms {
		if res.Crashed.Contains(i) {
			continue
		}
		v, ok := m.Decision()
		if !ok {
			t.Logf("%s: node %d undecided", label, i)
			return false
		}
		if v && !any1 || !v && !any0 {
			t.Logf("%s: node %d decided %v, not an input", label, i, v)
			return false
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Logf("%s: disagreement", label)
			return false
		}
	}
	return true
}

func TestFloodingSafetyQuick(t *testing.T) {
	const n, tt = 24, 8
	prop := func(seed uint64) bool {
		c := genCase(seed, n, tt, tt+2)
		ms := make([]interface {
			Decision() (bool, bool)
		}, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			m := NewFlooding(i, n, tt, c.inputs[i])
			ms[i], ps[i] = m, m
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewSchedule(c.events),
			MaxRounds: tt + 4,
		})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		return checkSafety(t, "flooding", c, ms, res)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStoppingSafetyQuick(t *testing.T) {
	const n, tt = 24, 8
	prop := func(seed uint64) bool {
		c := genCase(seed, n, tt, tt+2)
		ms := make([]interface {
			Decision() (bool, bool)
		}, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			m := NewEarlyStopping(i, n, tt, c.inputs[i])
			ms[i], ps[i] = m, m
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewSchedule(c.events),
			MaxRounds: tt + 6,
		})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		return checkSafety(t, "early-stopping", c, ms, res)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorSafetyQuick(t *testing.T) {
	const n, tt = 24, 8
	prop := func(seed uint64) bool {
		c := genCase(seed, n, tt, tt+1)
		ms := make([]interface {
			Decision() (bool, bool)
		}, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			m := NewRotatingCoordinator(i, n, tt, c.inputs[i])
			ms[i], ps[i] = m, m
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewSchedule(c.events),
			MaxRounds: tt + 4,
		})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		return checkSafety(t, "coordinator", c, ms, res)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFewCrashesSafetyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier property sweep skipped in -short mode")
	}
	const n, tt = 50, 10
	top, err := NewTopology(n, tt, TopologyOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		c := genCase(seed, n, tt, 60)
		ms := make([]interface {
			Decision() (bool, bool)
		}, n)
		ps := make([]sim.Protocol, n)
		for i := 0; i < n; i++ {
			m := new(FewCrashes)
			m.Init(i, top, c.inputs[i])
			ms[i], ps[i] = m, m
		}
		res, err := sim.Run(sim.Config{
			Protocols: ps,
			Fault:     crash.NewSchedule(c.events),
			MaxRounds: top.Schedule.Few + 4,
		})
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}
		return checkSafety(t, "few-crashes", c, ms, res)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

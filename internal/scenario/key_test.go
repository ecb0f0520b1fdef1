package scenario

import (
	"strings"
	"testing"
)

// TestKeyStableAndDistinct checks the two properties the result cache
// rests on: the key is a pure function of the spec (same spec, same
// key — across calls and across processes, pinned by the registry
// golden), and every run-determining dimension separates keys.
func TestKeyStableAndDistinct(t *testing.T) {
	base := MustLookup("consensus/few-crashes").Spec(60, 10, 1)
	if got, again := base.Key(), base.Key(); got != again {
		t.Fatalf("Key not deterministic: %s vs %s", got, again)
	}
	if !strings.HasPrefix(base.Key(), "k1:") || len(base.Key()) != 3+64 {
		t.Fatalf("Key format drifted: %s", base.Key())
	}

	mutations := map[string]func(*Spec){
		"name":       func(sp *Spec) { sp.Name = "other" },
		"problem":    func(sp *Spec) { sp.Problem = Gossip },
		"algorithm":  func(sp *Spec) { sp.Algorithm = ManyCrashes },
		"port":       func(sp *Spec) { sp.Port = SinglePort },
		"n":          func(sp *Spec) { sp.N = 61 },
		"t":          func(sp *Spec) { sp.T = 11 },
		"seed":       func(sp *Spec) { sp.Seed = 2 },
		"degree":     func(sp *Spec) { sp.Degree = 4 },
		"roundslack": func(sp *Spec) { sp.RoundSlack = 12 },
		"fault-kind": func(sp *Spec) { sp.Fault.Kind = OmissionFaults },
		"fault-rate": func(sp *Spec) { sp.Fault.Rate = 0.01 },
		"fault-schedule": func(sp *Spec) {
			sp.Fault.Schedule = []CrashEvent{{Node: 1, Round: 2, Keep: -1}}
		},
		"fault-corrupted": func(sp *Spec) { sp.Fault.Corrupted = []int{3} },
		"fault-window":    func(sp *Spec) { sp.Fault.WindowStart = 1 },
		"fault-delay":     func(sp *Spec) { sp.Fault.Delay = 2 },
		"fault-seed":      func(sp *Spec) { sp.Fault.Seed = 9 },
		"bool-input":      func(sp *Spec) { sp.BoolInputs[5] = !sp.BoolInputs[5] },
		"rumors":          func(sp *Spec) { sp.Rumors = []uint64{1} },
		"values":          func(sp *Spec) { sp.Values = []uint64{1} },
	}
	for name, mutate := range mutations {
		sp := MustLookup("consensus/few-crashes").Spec(60, 10, 1)
		mutate(&sp)
		if sp.Key() == base.Key() {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

// TestKeyNoLengthAliasing checks that the length-prefixed encoding
// keeps adjacent variable-length fields apart: shifting a boundary
// between inputs of equal total content must change the key.
func TestKeyNoLengthAliasing(t *testing.T) {
	a := Spec{Name: "ab", Algorithm: "c"}
	b := Spec{Name: "a", Algorithm: "bc"}
	if a.Key() == b.Key() {
		t.Fatal("name/algorithm boundary aliased")
	}
	c := Spec{Rumors: []uint64{1, 2}}
	d := Spec{Rumors: []uint64{1}, Values: []uint64{2}}
	if c.Key() == d.Key() {
		t.Fatal("rumors/values boundary aliased")
	}
}

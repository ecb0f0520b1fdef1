package scenario

import (
	"reflect"
	"sort"
	"testing"
)

// goldenMatrix pins the full scenario matrix together with each row's
// canonical Spec.Key fingerprint at (n=60, t=10, seed=1): every
// protocol stack of the paper's evaluation tables must stay
// registered, and its cache identity must stay stable. An accidental
// drop of a table row fails here before it silently disappears from
// the experiment sweeps; an accidental change to a row's canonical
// inputs, bound fault model, or the key encoding itself fails here
// before it silently invalidates (or worse, aliases) every cached
// result in a running fleet.
var goldenMatrix = map[string]string{
	"aea/expander":                    "k1:d5b983699c04979bece4eb89c8bb82a5df8126176c32645adf2d35070707428d",
	"byzantine/ab-consensus":          "k1:975bbbcd1ce612e5020a2697a7206cde31dbb6016ee482b24d3b1d401a45e188",
	"byzantine/dolev-strong-all":      "k1:8c593e0edce8710da2525d9569309062c307ec674bd9f3439fac49afb4bece94",
	"checkpoint/direct":               "k1:92aad8f95d0030ddd92bd2d1998224b8c8169a2e3b0be522f0231ea065677bc3",
	"checkpoint/expander":             "k1:61c7eb2ef9de7e6def9c74c0977df0e727e6a7bb3c98fc86bb918a7de65d6af4",
	"checkpoint/expander/partition":   "k1:51023e8513ae08783e5162e2f54031de34345759f8c5fe7e7155481339524508",
	"checkpoint/expander/single-port": "k1:4c6a9a81c0c053f4901d38503fab2306048f17bb9338f4ce9485007b273c1ad5",
	"consensus/early-stopping":        "k1:acc544e085890b98fdf38d89fbdf6fd67c029c9797962d6ac4e8ba9b5715b943",
	"consensus/few-crashes":           "k1:05e91cae69a0d70d3c8317c9d5006657d9bee130e85de434e0e6efc99549b16a",
	"consensus/few-crashes/chaos":     "k1:e39210d054f8a9f1e4bc650494255a8b8428b59da1e06b17812612a4e1e0de0c",
	"consensus/few-crashes/delay":     "k1:31caf46a1bad1947d710a9015fb77fb737c0c934810ca6b0bd8fee9a1a2c0cf0",
	"consensus/few-crashes/omission":  "k1:49bb262cdedb3526340c259bcac0b645686afc4155fc5710c0c87b0c75df48dd",
	"consensus/flooding":              "k1:25722ed425c2a758ca0e048458cf561994e3c79d1a5738dffa1d2359a4a50f92",
	"consensus/flooding/partition":    "k1:555f019f6e300b838b485a7672a4c463b2c585b094dc6c53af178c80250e4ea8",
	"consensus/many-crashes":          "k1:5c6c0e70f002ff38d3fec5f1c6eaf13d9dfb11962d5f0a51d28903042a1f4758",
	"consensus/rotating-coordinator":  "k1:c02e4c21ac2cd10fd16030f0b463a9890672749b926e36bfbad7b8040f32cdc8",
	"consensus/single-port":           "k1:242d9f97734ce70e4750e456a3b4ce22345f99fe8fbcbd73bf82f9881b3c1e0c",
	"gossip/all-to-all":               "k1:45d3f71cd4c49dd119ef6014213e8e716e8b58c5eaafe85e08acdb78606ebcdd",
	"gossip/expander":                 "k1:0032546cbf08d47db4e8a55316de4d1e9fd05201c17a04df7f213f6f62b70506",
	"gossip/expander/chaos":           "k1:eb715378b3f2d7616b566584fc2f1e8b53b7a8218445911548c5f417374c1633",
	"gossip/expander/delay":           "k1:c700db4571d3b393b7d494d349a749815c0e3d1a7871758d7b2505513743060b",
	"gossip/expander/omission":        "k1:8da048f735b238ed58de7020506dc57ca02c7b2504814c9d7a7189be0c4a1a95",
	"gossip/expander/single-port":     "k1:6a3dc37db9702694dd1ac3e9cef2b02143210acdd202b82e65d991874318c314",
	"majority/expander":               "k1:8b72c0979b2a72eba97e937c9c0a72d8ee049011587ad4f6f900f30a1ac8ba7a",
	"majority/expander/omission":      "k1:22243fb0f11d42fa72d3479f1c39926db39b457bf6bc5ccd28c1239581bf1d56",
	"scv/expander":                    "k1:fc8b3e77ca7b2e4f705665c2c49654f60b684e8b0bbd5c8bf7228e83d561ba96",
}

func TestRegistryMatrixGolden(t *testing.T) {
	want := make([]string, 0, len(goldenMatrix))
	for name := range goldenMatrix {
		want = append(want, name)
	}
	sort.Strings(want)
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registry matrix drifted:\n got  %v\n want %v", got, want)
	}
	// Names() must be deduplicated (Register panics on duplicates, but
	// pin it anyway against a future registry rewrite).
	seen := make(map[string]bool, len(got))
	for _, name := range got {
		if seen[name] {
			t.Fatalf("duplicate registry name %q", name)
		}
		seen[name] = true
	}
	// The fingerprint of every row's canonical spec is the row's cache
	// identity — the serving layer addresses results by it.
	for name, wantKey := range goldenMatrix {
		if gotKey := MustLookup(name).Spec(60, 10, 1).Key(); gotKey != wantKey {
			t.Errorf("%s fingerprint drifted:\n got  %s\n want %s", name, gotKey, wantKey)
		}
	}
}

// TestRegistryCountsPerProblem pins the per-problem row counts of the
// matrix.
func TestRegistryCountsPerProblem(t *testing.T) {
	wantCounts := map[Problem]int{
		Consensus:          10,
		Gossip:             6,
		Checkpointing:      4,
		ByzantineConsensus: 2,
		AlmostEverywhere:   1,
		SpreadCommonValue:  1,
		MajorityVote:       2,
	}
	counts := make(map[Problem]int)
	for _, d := range All() {
		counts[d.Problem]++
	}
	total := 0
	for problem, want := range wantCounts {
		if got := counts[problem]; got != want {
			t.Errorf("%v has %d definitions, want %d", problem, got, want)
		}
		total += want
	}
	if got := len(All()); got != total {
		t.Errorf("All() has %d definitions, want %d", got, total)
	}
}

// TestEveryExperimentIdIsCovered asserts each paper experiment id that
// runs engine scenarios maps to at least one registry row (E10 is the
// lower-bound constructions, which run through the Stepper, not a
// registered protocol stack).
func TestEveryExperimentIdIsCovered(t *testing.T) {
	covered := make(map[string]bool)
	for _, d := range All() {
		for _, id := range d.Experiments {
			covered[id] = true
		}
	}
	for _, id := range []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E11", "E12", "E13", "T1"} {
		if !covered[id] {
			t.Errorf("experiment %s has no registry scenario", id)
		}
	}
}

func TestLookup(t *testing.T) {
	d, ok := Lookup("consensus/few-crashes")
	if !ok || d.Problem != Consensus || d.Algorithm != FewCrashes || d.Port != MultiPort {
		t.Fatalf("Lookup(consensus/few-crashes) = %+v, %v", d, ok)
	}
	if _, ok := Lookup("consensus/nonsense"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup on unknown name did not panic")
		}
	}()
	MustLookup("consensus/nonsense")
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	mustPanic := func(name string, d Definition) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("empty", Definition{})
	mustPanic("duplicate", Definition{Name: "consensus/few-crashes"})
}

func TestDefinitionSpecCanonicalInputs(t *testing.T) {
	n, tt := 30, 5
	sp := MustLookup("consensus/few-crashes").Spec(n, tt, 7)
	if sp.Name != "consensus/few-crashes" || sp.N != n || sp.T != tt || sp.Seed != 7 {
		t.Fatalf("spec header = %+v", sp)
	}
	if len(sp.BoolInputs) != n || !sp.BoolInputs[0] || sp.BoolInputs[1] || !sp.BoolInputs[3] {
		t.Fatalf("consensus canonical inputs wrong: %v", sp.BoolInputs)
	}
	if sp.Fault.Kind != NoFailures {
		t.Fatalf("canonical fault = %v, want NoFailures", sp.Fault.Kind)
	}

	gp := MustLookup("gossip/expander").Spec(n, tt, 1)
	if len(gp.Rumors) != n || gp.Rumors[17] != 17 {
		t.Fatalf("gossip canonical rumors wrong: %v", gp.Rumors)
	}

	bp := MustLookup("byzantine/ab-consensus").Spec(n, tt, 1)
	if len(bp.Values) != n || bp.Values[11] != 11 {
		t.Fatalf("byzantine canonical values wrong: %v", bp.Values)
	}

	scv := MustLookup("scv/expander").Spec(n, tt, 1)
	holders := 0
	for _, h := range scv.BoolInputs {
		if h {
			holders++
		}
	}
	if holders != 3*n/5 {
		t.Fatalf("scv canonical holders = %d, want %d", holders, 3*n/5)
	}

	// Single-port definitions carry their port model into the spec.
	if sp := MustLookup("gossip/expander/single-port").Spec(n, tt, 1); sp.Port != SinglePort {
		t.Fatalf("single-port definition produced port %v", sp.Port)
	}
}

// TestFaultBoundDefinitionsRun pins that every fault-bound registry
// row carries its fault model into the spec and materializes into a
// run that terminates within the round budget.
func TestFaultBoundDefinitionsRun(t *testing.T) {
	wantKinds := map[string]FaultKind{
		"consensus/few-crashes/omission": OmissionFaults,
		"consensus/few-crashes/delay":    DelayedLinks,
		"consensus/flooding/partition":   PartitionWindow,
		"gossip/expander/omission":       OmissionFaults,
		"gossip/expander/delay":          DelayedLinks,
		"checkpoint/expander/partition":  PartitionWindow,
		"majority/expander/omission":     OmissionFaults,
		"consensus/few-crashes/chaos":    DelayedLinks,
		"gossip/expander/chaos":          DelayedLinks,
	}
	faultBound := 0
	for _, d := range All() {
		if d.Fault.Kind == NoFailures {
			continue
		}
		faultBound++
		want, ok := wantKinds[d.Name]
		if !ok {
			t.Errorf("unexpected fault-bound row %q", d.Name)
			continue
		}
		if d.Fault.Kind != want {
			t.Errorf("%s fault kind = %v, want %v", d.Name, d.Fault.Kind, want)
		}
		sp := d.Spec(60, 10, 1)
		if sp.Fault.Kind != d.Fault.Kind {
			t.Errorf("%s spec dropped the fault model", d.Name)
			continue
		}
		if _, err := Run(sp); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	if faultBound < 8 {
		t.Errorf("%d fault-bound rows registered, want at least 8", faultBound)
	}
}

package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// scribbler is a fuzzNode that overwrites its own send buffer as soon
// as the engine may no longer read it: inside its Deliver. An engine
// that read an outbox after the round's Deliver phase began would
// deliver the scribbled envelopes or reject them.
type scribbler struct{ *fuzzNode }

func (s scribbler) Deliver(round int, inbox []Envelope) {
	s.fuzzNode.Deliver(round, inbox)
	out := s.out[:cap(s.out)]
	for i := range out {
		out[i] = Envelope{From: -1, To: -1, Payload: fuzzPayload{bits: 1 << 20}}
	}
}

// freshSender is a fuzzNode that returns a newly allocated outbox every
// round.
type freshSender struct{ *fuzzNode }

func (f freshSender) Send(round int) []Envelope {
	return append([]Envelope(nil), f.fuzzNode.Send(round)...)
}

// TestOutboxContract pins Protocol.Send's contract from both sides: a
// machine may overwrite its send buffer from its Deliver on, and may
// hand the engine a different slice every round. Either way the
// engine gives results DeepEqual to the reference engine's, under crashes, link faults, Byzantine senders
// and the single-port model.
func TestOutboxContract(t *testing.T) {
	wrappers := map[string]func(*fuzzNode) Protocol{
		"overwrites-in-deliver": func(f *fuzzNode) Protocol { return scribbler{f} },
		"fresh-every-round":     func(f *fuzzNode) Protocol { return freshSender{f} },
	}
	cases := []equivCase{
		{name: "multi-port", mixed: true, labeler: true},
		{name: "multi-port/crash", crash: true},
		{name: "multi-port/link+crash", mixed: true, link: true, crash: true},
		{name: "multi-port/byzantine", byzantine: true},
		{name: "single-port/link", singlePort: true, link: true},
	}
	for name, wrap := range wrappers {
		for _, c := range cases {
			build := func(n, horizon int, seed uint64) ([]Protocol, []*fuzzNode) {
				ps, fs := buildFuzz(n, horizon, c, seed)
				for i, f := range fs {
					ps[i] = wrap(f)
				}
				return ps, fs
			}
			for _, seed := range []uint64{1, 4} {
				const n, horizon = 40, 20
				tag := fmt.Sprintf("%s %s seed %d", name, c.name, seed)
				refPs, refNodes := buildFuzz(n, horizon, c, seed)
				want, err := referenceRun(equivConfig(c, refPs, n, horizon, seed))
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				ps, nodes := build(n, horizon, seed)
				got, err := Run(equivConfig(c, ps, n, horizon, seed))
				if err != nil {
					t.Fatalf("%s: sequential: %v", tag, err)
				}
				compareResults(t, tag+": sequential", want, got, refNodes, nodes)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: sequential result %+v, reference %+v", tag, got, want)
				}
			}
		}
	}
}

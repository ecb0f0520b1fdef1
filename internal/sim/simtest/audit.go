// Package simtest holds test helpers for protocols written against the
// sim engine. It lives outside the _test files so the packages above
// sim (consensus, scenario) can audit their machines with it.
package simtest

import (
	"fmt"

	"lineartime/internal/sim"
)

// Auditor checks a machine's sim.Sleeper promises against what the
// machine then does. It forwards Send, Deliver and Halted but has no
// QuietUntil of its own, so a run over Auditors executes every round;
// each round it asks the wrapped machine how long it will stay quiet
// and records a violation if, inside a promised span in which nothing
// was delivered, the machine sends a message or halts.
type Auditor struct {
	m sim.Sleeper
	// quiet is the end of the promise in force: the machine said it
	// stays silent in rounds < quiet unless something is delivered.
	quiet int
	round int
	err   error
}

// Hide wraps every machine in an Auditor. All of them must be Sleepers.
// The returned check reports the first broken promise, lowest node
// first; call it after the run.
func Hide(ps []sim.Protocol) (hidden []sim.Protocol, check func() error) {
	hidden = make([]sim.Protocol, len(ps))
	auditors := make([]*Auditor, len(ps))
	for i, p := range ps {
		auditors[i] = &Auditor{m: p.(sim.Sleeper)}
		hidden[i] = auditors[i]
	}
	return hidden, func() error {
		for i, a := range auditors {
			if a.err != nil {
				return fmt.Errorf("node %d: %w", i, a.err)
			}
		}
		return nil
	}
}

// Send implements sim.Protocol.
func (a *Auditor) Send(round int) []sim.Envelope {
	a.round = round
	// A later, shorter answer does not take back an earlier promise.
	a.quiet = max(a.quiet, a.m.QuietUntil(round))
	out := a.m.Send(round)
	if len(out) > 0 && round < a.quiet && a.err == nil {
		a.err = fmt.Errorf("sent %d messages in round %d after promising quiet until %d", len(out), round, a.quiet)
	}
	return out
}

// Deliver implements sim.Protocol. A delivery releases the machine from
// its promise, for this round's Halted and for every later round.
func (a *Auditor) Deliver(round int, inbox []sim.Envelope) {
	if len(inbox) > 0 {
		a.quiet = round
	}
	a.m.Deliver(round, inbox)
}

// Halted implements sim.Protocol.
func (a *Auditor) Halted() bool {
	halted := a.m.Halted()
	if halted && a.round < a.quiet && a.err == nil {
		a.err = fmt.Errorf("halted in round %d after promising quiet until %d", a.round, a.quiet)
	}
	return halted
}

// EventLog is a sim.Observer that keeps a run's events, in order, in a
// form two runs can be compared by.
type EventLog struct{ Events []string }

// OnMessage implements sim.Observer.
func (l *EventLog) OnMessage(round int, env sim.Envelope) {
	l.Events = append(l.Events, fmt.Sprintf("msg r%d %d->%d %v", round, env.From, env.To, env.Payload))
}

// OnCrash implements sim.Observer.
func (l *EventLog) OnCrash(round int, node sim.NodeID) {
	l.Events = append(l.Events, fmt.Sprintf("crash r%d %d", round, node))
}

// OnHalt implements sim.Observer.
func (l *EventLog) OnHalt(round int, node sim.NodeID) {
	l.Events = append(l.Events, fmt.Sprintf("halt r%d %d", round, node))
}

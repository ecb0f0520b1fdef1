package scenario

import (
	"encoding/json"
	"fmt"
)

// The Report tree is the wire format of the serving layer
// (internal/serve) and of linearsim -json, so the enum dimensions
// marshal as their canonical CLI spellings rather than opaque integers.
// Both directions are implemented: clients (the repository benchmark,
// the service example) decode the same bodies the daemon encodes.

// MarshalJSON encodes the problem as its String form.
func (p Problem) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON decodes the String form produced by MarshalJSON.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("scenario: problem %s is not a JSON string", data)
	}
	for _, cand := range []Problem{Consensus, Gossip, Checkpointing, ByzantineConsensus, AlmostEverywhere, SpreadCommonValue, MajorityVote} {
		if cand.String() == s {
			*p = cand
			return nil
		}
	}
	return fmt.Errorf("scenario: unknown problem %q", s)
}

// MarshalJSON encodes the port model as its String form.
func (p PortModel) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON decodes the String form produced by MarshalJSON.
func (p *PortModel) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("scenario: port model %s is not a JSON string", data)
	}
	switch s {
	case SinglePort.String():
		*p = SinglePort
	case MultiPort.String():
		*p = MultiPort
	default:
		return fmt.Errorf("scenario: unknown port model %q", s)
	}
	return nil
}

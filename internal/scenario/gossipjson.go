package scenario

import (
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// MarshalJSON emits the bytes encoding/json's reflection encoder
// produces for the struct — fields in declaration order, each view an
// object keyed by decimal node name in string order, null for a crashed
// node — without reflecting over n maps and string-sorting n keys for
// each: a response carries n views of up to n entries, and at n=128
// that sort was most of the encode stage. A view's keys are node names
// below n, so one string-ordered list of 0..n-1 orders every view.
func (g *GossipOutcome) MarshalJSON() ([]byte, error) { return g.appendJSON(nil) }

// appendJSON appends MarshalJSON's bytes to buf. Nodes that decided
// equal views share one map (gossipOutcome), and a shared view is walked
// once: the nodes after the first copy its bytes.
func (g *GossipOutcome) appendJSON(buf []byte) ([]byte, error) {
	n := len(g.Extant)
	entries := 0
	for _, view := range g.Extant {
		entries += len(view)
	}
	names := make([]string, n)
	order := make([]int, n)
	for k := range names {
		names[k] = `"` + strconv.Itoa(k) + `":`
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	// Where in buf each map already walked was written, by map identity.
	written := make(map[uintptr][2]int)

	buf = slices.Grow(buf, 64+5*n+12*entries)
	buf = append(buf, `{"extant":`...)
	if g.Extant == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, view := range g.Extant {
			if i > 0 {
				buf = append(buf, ',')
			}
			if view == nil {
				buf = append(buf, "null"...)
				continue
			}
			id := reflect.ValueOf(view).Pointer()
			if at, ok := written[id]; ok {
				buf = append(buf, buf[at[0]:at[1]]...)
				continue
			}
			start, emitted := len(buf), 0
			buf = append(buf, '{')
			for _, k := range order {
				if v, ok := view[k]; ok {
					if emitted > 0 {
						buf = append(buf, ',')
					}
					buf = append(buf, names[k]...)
					buf = strconv.AppendUint(buf, v, 10)
					emitted++
				}
			}
			buf = append(buf, '}')
			if emitted != len(view) {
				// A key that is no node name: no run produces one, but
				// the type admits it, so let the reflection encoder
				// order this view.
				b, err := json.Marshal(view)
				if err != nil {
					return nil, err
				}
				buf = append(buf[:start], b...)
			}
			written[id] = [2]int{start, len(buf)}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"complete":`...)
	buf = strconv.AppendBool(buf, g.Complete)
	return append(buf, '}'), nil
}

// AppendJSON appends json.Marshal(r)'s bytes without an encoding/json
// pass over a gossip section: it is most of its report (135 KB of 136 at
// n=128) and just hand-written, and json.Marshal validates and compacts
// whatever MarshalJSON returns. The rest is marshaled without the
// section, and the section written where encoding/json puts it.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil || r.Gossip == nil || r.Checkpoint != nil || r.Byzantine != nil || r.Subroutine != nil || r.Majority != nil {
		// No section to detach, or — in no run's report — an outcome
		// declared after Gossip, which would have to follow it.
		b, err := json.Marshal(r)
		return append(dst, b...), err
	}
	head := *r
	head.Gossip = nil
	b, err := json.Marshal(&head)
	if err != nil {
		return dst, err
	}
	// Gossip is now the report object's last member.
	dst = append(dst, b[:len(b)-1]...)
	dst = append(dst, `,"gossip":`...)
	dst, err = r.Gossip.appendJSON(dst)
	return append(dst, '}'), err
}

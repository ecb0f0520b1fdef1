package scenario

import (
	"encoding/json"
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
func (g *GossipOutcome) MarshalJSON() ([]byte, error) {
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

	buf := make([]byte, 0, 64+5*n+12*entries)
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
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"complete":`...)
	buf = strconv.AppendBool(buf, g.Complete)
	return append(buf, '}'), nil
}

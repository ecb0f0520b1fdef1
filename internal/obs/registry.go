package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// L is one label pair attached to a metric child.
type L struct {
	Key   string
	Value string
}

// kindT distinguishes exposition TYPE lines.
type kindT int

const (
	kindCounter kindT = iota
	kindGauge
	kindHistogram
)

// child is one (labels, instrument) row inside a family.
type child struct {
	labels []L
	sig    string // canonical sorted label signature for dedup/order

	ctr     *Counter
	gauge   *Gauge
	hist    *Histogram
	ctrFn   func() int64
	durFn   func() time.Duration
	gaugeFn func() float64
}

func (c *child) value() float64 {
	switch {
	case c.ctr != nil:
		return float64(c.ctr.Value())
	case c.gauge != nil:
		return c.gauge.Value()
	case c.ctrFn != nil:
		return float64(c.ctrFn())
	case c.durFn != nil:
		return c.durFn().Seconds()
	case c.gaugeFn != nil:
		return c.gaugeFn()
	}
	return 0
}

// family is all children sharing a metric name.
type family struct {
	name     string
	help     string
	kind     kindT
	children []*child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is expected at construction time
// (panics on misuse, like expvar); reads and observations are
// concurrency-safe.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelSig(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]L, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// register inserts a child, creating or checking the family.
func (r *Registry) register(name, help string, kind kindT, c *child) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range c.labels {
		if !validName(l.Key) || strings.HasPrefix(l.Key, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, name))
		}
	}
	c.sig = labelSig(c.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type", name))
	}
	for _, prev := range f.children {
		if prev.sig == c.sig {
			panic(fmt.Sprintf("obs: duplicate registration of %s{%s}", name, c.sig))
		}
	}
	f.children = append(f.children, c)
}

// Counter registers and returns a counter child.
func (r *Registry) Counter(name, help string, labels ...L) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &child{labels: labels, ctr: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — used to surface counters that already live as
// atomics inside other components without rewriting them.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...L) {
	r.register(name, help, kindCounter, &child{labels: labels, ctrFn: fn})
}

// DurationCounterFunc registers a counter of seconds read from fn — a
// running total of elapsed time — at exposition time. Unlike the other
// counters it renders fractional seconds.
func (r *Registry) DurationCounterFunc(name, help string, fn func() time.Duration, labels ...L) {
	r.register(name, help, kindCounter, &child{labels: labels, durFn: fn})
}

// Gauge registers and returns a gauge child.
func (r *Registry) Gauge(name, help string, labels ...L) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &child{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...L) {
	r.register(name, help, kindGauge, &child{labels: labels, gaugeFn: fn})
}

// Histogram registers and returns a histogram child over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...L) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, kindHistogram, &child{labels: labels, hist: h})
	return h
}

// Value returns the current scalar value of the child of name with
// exactly the given labels. Histograms report their observation count.
// The second result is false when no such child exists.
func (r *Registry) Value(name string, labels ...L) (float64, bool) {
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return 0, false
	}
	for _, c := range f.children {
		if c.sig == sig {
			if c.hist != nil {
				return float64(c.hist.Count()), true
			}
			return c.value(), true
		}
	}
	return 0, false
}

// escapeLabel escapes a label value for exposition.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatLabels renders {k="v",...} from sorted labels; extra appends
// trailing pairs (used for the histogram le label).
func formatLabels(labels []L, extra ...L) string {
	all := make([]L, 0, len(labels)+len(extra))
	all = append(all, labels...)
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, children by label
// signature, histograms expanded to cumulative _bucket/_sum/_count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typ)
		children := make([]*child, len(f.children))
		copy(children, f.children)
		sort.Slice(children, func(i, j int) bool { return children[i].sig < children[j].sig })
		for _, c := range children {
			if c.hist != nil {
				cum := int64(0)
				for i, bound := range c.hist.bounds {
					cum += c.hist.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, formatLabels(c.labels, L{"le", formatFloat(bound)}), cum)
				}
				cum += c.hist.counts[len(c.hist.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n",
					f.name, formatLabels(c.labels, L{"le", "+Inf"}), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n",
					f.name, formatLabels(c.labels), formatFloat(c.hist.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n",
					f.name, formatLabels(c.labels), c.hist.Count())
				continue
			}
			if c.ctr != nil || c.ctrFn != nil {
				// Counters are integral; render without exponent.
				fmt.Fprintf(&b, "%s%s %d\n", f.name, formatLabels(c.labels), int64(c.value()))
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, formatLabels(c.labels), formatFloat(c.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

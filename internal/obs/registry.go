package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families are registered once (typically at
// construction of the component they instrument); registration is
// idempotent for an identical (name, kind, labels) signature and panics on
// a conflicting one — a name collision between two different instruments
// is a programmer error that must not survive to production scrapes.
//
// Exposition output is deterministic: families sort by name, children by
// label values, so golden tests and diff-based dashboards are stable.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labeled instrument inside a family. Exactly one of the
// instrument fields is set, matching the family kind.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	gaugeFn     func() float64
	hist        *Histogram
}

type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child // guarded by mu; key = joined label values
}

// metricNameRe is the registration-time name gate, deliberately stricter
// than the Prometheus grammar: lower snake_case only, so the catalog in
// OBSERVABILITY.md stays greppable and consistent. wmlint's metricnames
// analyzer enforces the same shape statically at call sites.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// labelNameRe is the label-key gate.
var labelNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func (r *Registry) family(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q is not lower snake_case", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: label name %q on %q is not lower snake_case", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	if kind == kindHistogram {
		// Validate once via the standalone constructor; keep the validated copy.
		f.buckets = NewHistogram(buckets).upper
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values with a separator that cannot appear in a
// well-formed label value boundary ambiguity (0x00 is not printable and
// values are operator-chosen constants, not request data).
func childKey(values []string) string { return strings.Join(values, "\x00") }

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = NewHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Counter registers (or returns) an unlabeled counter. Counter names end
// in _total by convention, enforced by wmlint's metricnames analyzer.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).child(nil).counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).child(nil).gauge
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
// fn runs while the registry renders, so it must not scrape the registry
// itself and should return quickly.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	c := f.child(nil)
	f.mu.Lock()
	c.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram over the given
// bucket upper bounds (see LatencyBuckets and friends).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, buckets, nil).child(nil).hist
}

// CounterVec is a counter family with labels; With interns one child per
// label-value tuple.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the child counter for the given label values, creating it
// on first use. Call at registration time and keep the handle: With itself
// takes the family lock and allocates on first use — it is not the hot
// path, the returned *Counter is.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).gauge }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).hist }

// Value looks one instrument's current value up by name and label values:
// counters and gauges return their value, histograms their observation
// count. The second result reports whether the instrument exists. This is
// the assertion surface the cluster simulator uses to cross-check wire
// metrics against its journal.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	c := f.children[childKey(labelValues)]
	f.mu.Unlock()
	if c == nil {
		return 0, false
	}
	switch {
	case c.counter != nil:
		return float64(c.counter.Value()), true
	case c.gaugeFn != nil:
		return c.gaugeFn(), true
	case c.gauge != nil:
		return float64(c.gauge.Value()), true
	case c.hist != nil:
		return float64(c.hist.Count()), true
	}
	return 0, false
}

// ---- exposition ----

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...}; extra is an optional trailing label
// (the histogram "le") appended after the family labels.
func writeLabels(b *bufio.Writer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus renders every family in text exposition format (0.0.4).
// Output is sorted and therefore stable for identical registry state. It
// streams to w through a small buffer rather than building the whole text
// first, which took five times the text's size in allocations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	b := bufio.NewWriter(w)
	for _, f := range fams {
		f.render(b)
	}
	return b.Flush()
}

func (f *family) render(b *bufio.Writer) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(kids) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range kids {
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(c.counter.Value(), 10))
			b.WriteByte('\n')
		case kindGauge:
			v := float64(c.gauge.Value())
			if c.gaugeFn != nil {
				v = c.gaugeFn()
			}
			b.WriteString(f.name)
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(v))
			b.WriteByte('\n')
		case kindHistogram:
			f.renderHistogram(b, c)
		}
	}
}

func (f *family) renderHistogram(b *bufio.Writer, c *child) {
	h := c.hist
	var cum int64
	for i, bound := range h.upper {
		cum += h.counts[i].Load()
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, c.labelValues, "le", formatFloat(bound))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.upper)].Load()
	b.WriteString(f.name)
	b.WriteString("_bucket")
	writeLabels(b, f.labels, c.labelValues, "le", "+Inf")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')

	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.labels, c.labelValues, "", "")
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')

	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.labels, c.labelValues, "", "")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(h.Count(), 10))
	b.WriteByte('\n')
}

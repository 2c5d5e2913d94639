package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Registry renders metric families in the Prometheus text exposition format
// (tempartd's /metrics). Families render in registration order and their
// series in the order of their label-value tuples; a labelled family with no
// series writes nothing, header included. Counters and histograms are
// updated through the handles NewCounter and NewHistogram return; NewFunc
// families read their values when the registry is written. The zero
// Registry is ready to use, and every method is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family interface{ write(b []byte) []byte }

func (r *Registry) add(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, f)
}

// Include renders sub's families, as they stand when r is written, at this
// point of r's order.
func (r *Registry) Include(sub *Registry) { r.add(sub) }

// Write renders every family to w in one write.
func (r *Registry) Write(w io.Writer) error {
	_, err := w.Write(r.write(make([]byte, 0, 16<<10)))
	return err
}

func (r *Registry) write(b []byte) []byte {
	r.mu.Lock()
	fams := r.families
	r.mu.Unlock()
	for _, f := range fams {
		b = f.write(b)
	}
	return b
}

// desc is what every family has: name, HELP text, TYPE and label names.
type desc struct {
	name, help, typ string
	labels          []string
}

func (d *desc) header(b []byte) []byte {
	return fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.typ)
}

// sample appends one sample line: name+suffix, the label set (labels, then
// le when given) and v, formatted %d for integers and %g for floats.
func sample[V int64 | float64](b []byte, d *desc, suffix, labels, le string, v V) []byte {
	b = append(append(b, d.name...), suffix...)
	if labels != "" || le != "" {
		b = append(append(b, '{'), labels...)
		if labels != "" && le != "" {
			b = append(b, ',')
		}
		b = append(append(b, le...), '}')
	}
	if f, ok := any(v).(float64); ok {
		return append(strconv.AppendFloat(append(b, ' '), f, 'g', -1, 64), '\n')
	}
	return append(strconv.AppendInt(append(b, ' '), int64(v), 10), '\n')
}

// labelEscaper escapes what the text format requires in a label value:
// backslash, double quote and line feed, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n + `="`)
		labelEscaper.WriteString(&sb, values[i])
		sb.WriteByte('"')
	}
	return sb.String()
}

// vec holds a family's series sorted by label-value tuple, each with its
// label set rendered once, when the series is created.
type vec[S any] struct {
	desc
	fresh  func() S // a new series' state; nil means the zero S
	mu     sync.Mutex
	byKey  map[string]*series[S]
	sorted []*series[S]
}

type series[S any] struct {
	values []string
	labels string
	s      S
}

func (v *vec[S]) init(d desc, fresh func() S) {
	v.desc, v.fresh, v.byKey = d, fresh, map[string]*series[S]{}
	if len(d.labels) == 0 {
		v.at() // an unlabelled family always has its one series
	}
}

// key length-prefixes every label value, so no value can pass for two.
func key(buf []byte, values []string) []byte {
	for _, x := range values {
		buf = append(append(strconv.AppendInt(buf, int64(len(x)), 10), ':'), x...)
	}
	return buf
}

// at returns the series of values, creating it. The caller holds v.mu.
func (v *vec[S]) at(values ...string) *series[S] {
	var buf [96]byte
	k := key(buf[:0], values)
	if s := v.byKey[string(k)]; s != nil {
		return s
	}
	vals := slices.Clone(values)
	s := &series[S]{values: vals, labels: renderLabels(v.labels, vals)}
	if v.fresh != nil {
		s.s = v.fresh()
	}
	v.byKey[string(k)] = s
	i, _ := slices.BinarySearchFunc(v.sorted, vals, func(s *series[S], t []string) int { return slices.Compare(s.values, t) })
	v.sorted = slices.Insert(v.sorted, i, s)
	return s
}

// writeAll writes the header and each series through one; nothing if none.
func (v *vec[S]) writeAll(b []byte, one func(b []byte, s *series[S]) []byte) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.sorted) > 0 {
		b = v.header(b)
	}
	for _, s := range v.sorted {
		b = one(b, s)
	}
	return b
}

// Counter is a counter family: one monotone series per label-value tuple.
type Counter[V int64 | float64] struct{ vec[V] }

// NewCounter registers a counter family with the given label names.
func NewCounter[V int64 | float64](r *Registry, name, help string, labels ...string) *Counter[V] {
	c := &Counter[V]{}
	c.init(desc{name, help, "counter", labels}, nil)
	r.add(c)
	return c
}

// Add adds d to the series of the label values, one per label name.
func (c *Counter[V]) Add(d V, values ...string) {
	c.mu.Lock()
	c.at(values...).s += d
	c.mu.Unlock()
}

// Inc adds one to the series of the label values.
func (c *Counter[V]) Inc(values ...string) { c.Add(1, values...) }

// Value reads the series of the label values; zero when it has none.
func (c *Counter[V]) Value(values ...string) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf [96]byte
	if s := c.byKey[string(key(buf[:0], values))]; s != nil {
		return s.s
	}
	return 0
}

func (c *Counter[V]) write(b []byte) []byte {
	return c.writeAll(b, func(b []byte, s *series[V]) []byte { return sample(b, &c.desc, "", s.labels, "", s.s) })
}

// Histogram is a fixed-bucket histogram family: cumulative buckets closed
// by le="+Inf", then _sum and _count.
type Histogram struct {
	vec[*histCounts]
	bounds []float64
	les    []string
}

type histCounts struct {
	counts []int64 // per bound, then +Inf; not cumulative
	sum    float64
}

// NewHistogram registers a histogram family with ascending upper bounds.
func NewHistogram(r *Registry, name, help string, bounds []float64, labels ...string) *Histogram {
	h := &Histogram{bounds: bounds, les: leLabels(bounds)}
	h.init(desc{name, help, "histogram", labels}, func() *histCounts {
		return &histCounts{counts: make([]int64, len(bounds)+1)}
	})
	r.add(h)
	return h
}

// Observe records v in the series of the label values.
func (h *Histogram) Observe(v float64, values ...string) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.mu.Lock()
	c := h.at(values...).s
	c.counts[i]++
	c.sum += v
	h.mu.Unlock()
}

func (h *Histogram) write(b []byte) []byte {
	return h.writeAll(b, func(b []byte, s *series[*histCounts]) []byte {
		return writeHist(b, &h.desc, s.labels, h.les, s.s.counts, s.s.sum)
	})
}

// leLabels renders each bound's le label, then le="+Inf".
func leLabels(bounds []float64) []string {
	les := make([]string, 0, len(bounds)+1)
	for _, ub := range bounds {
		les = append(les, `le="`+strconv.FormatFloat(ub, 'g', -1, 64)+`"`)
	}
	return append(les, `le="+Inf"`)
}

// writeHist appends one histogram series from per-bucket counts, +Inf last.
func writeHist(b []byte, d *desc, labels string, les []string, counts []int64, sum float64) []byte {
	var cum int64
	for i, le := range les {
		cum += counts[i]
		b = sample(b, d, "_bucket", labels, le, cum)
	}
	return sample(sample(b, d, "_sum", labels, "", sum), d, "_count", labels, "", cum)
}

type funcFamily[V int64 | float64] struct {
	desc
	collect func(emit func(v V, values ...string))
}

// NewFunc registers a family of type typ ("counter" or "gauge") whose
// series collect emits, in emission order, each time the registry is
// written. A family that emits nothing writes nothing, header included.
func NewFunc[V int64 | float64](r *Registry, name, help, typ string, labels []string, collect func(emit func(v V, values ...string))) {
	r.add(&funcFamily[V]{desc{name, help, typ, labels}, collect})
}

func (f *funcFamily[V]) write(b []byte) []byte {
	n := len(b)
	b = f.header(b)
	head := len(b)
	f.collect(func(v V, values ...string) { b = sample(b, &f.desc, "", renderLabels(f.labels, values), "", v) })
	if len(b) == head {
		return b[:n]
	}
	return b
}

// Package obs is the pipeline-wide instrumentation layer: hierarchical
// wall-clock spans with attached counters and attributes, recorded into an
// in-memory Recorder and drained into pluggable sinks — a Chrome-trace JSON
// exporter (spans open in Perfetto next to FLUSIM schedules) and a JSON
// run-manifest writer — plus the Registry that renders tempartd's /metrics
// in the Prometheus text format.
//
// The package is zero-dependency (standard library only) and designed so
// that *disabled* instrumentation is free: every method is safe on a nil
// *Recorder and on the zero Span, and the disabled path performs no
// allocation and takes no lock — pinned by TestDisabledRecorderZeroAllocs
// and BenchmarkSpanOverhead with testing.AllocsPerRun, so the allocation
// wins of the partitioning and evaluation hot paths survive being
// instrumented.
//
// Typical use:
//
//	rec := obs.NewRecorder()
//	ctx := obs.WithRecorder(ctx, rec)
//	span := rec.Start("partition")
//	child := span.Start("coarsen")
//	child.SetInt("vertices", int64(n))
//	child.End()
//	span.End()
//	rec.WriteChromeTrace(f) // open in Perfetto
//
// Library code fetches the recorder with obs.FromContext(ctx) (nil when the
// caller did not ask for instrumentation) and simply records; it never needs
// to know whether anyone is listening.
package obs

import (
	"sort"
	"sync"
	"time"
)

// AttrKind discriminates the value held by an Attr.
type AttrKind uint8

const (
	// AttrInt marks an integer attribute.
	AttrInt AttrKind = iota
	// AttrFloat marks a float attribute.
	AttrFloat
	// AttrStr marks a string attribute.
	AttrStr
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string   `json:"k"`
	Kind  AttrKind `json:"t"`
	Int   int64    `json:"i,omitempty"`
	Float float64  `json:"f,omitempty"`
	Str   string   `json:"s,omitempty"`
}

// SpanRecord is one recorded span. Times are nanoseconds since the
// recorder's creation (a monotonic epoch, so spans from concurrent
// goroutines order consistently).
type SpanRecord struct {
	// Name identifies the phase ("partition/coarsen", "eval/simulate", ...).
	// Phase aggregation (PhaseTotals) groups by this name.
	Name string `json:"name"`
	// Parent is the index of the parent span in the recorder's buffer, or
	// -1 for root spans.
	Parent int32 `json:"parent"`
	// Start and End are nanoseconds since the recorder epoch. An unfinished
	// span has End < Start; exporters clamp it to Start.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Node names the fleet member that recorded the span. Locally recorded
	// spans leave it empty; Graft stamps it on spans adopted from a peer's
	// snapshot, which is what lets one stitched trace carry per-node process
	// lanes.
	Node string `json:"node,omitempty"`
	// Attrs are the span's annotations, in the order they were set.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration returns the span's length, zero for unfinished spans.
func (s *SpanRecord) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// Recorder collects spans and counters. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Recorder is the canonical disabled
// recorder: every operation is a zero-allocation no-op).
type Recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []SpanRecord
	counters map[string]int64
}

// NewRecorder returns an enabled recorder whose time epoch is "now".
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), counters: map[string]int64{}}
}

// Enabled reports whether the recorder actually records (false for nil).
// Callers guard *extra work* — computing an edge cut just to attach it —
// behind Enabled(); plain Start/End/Set calls need no guard.
func (r *Recorder) Enabled() bool { return r != nil }

// now is the recorder's clock: nanoseconds since its creation.
func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// NowNs reads the recorder's clock (nanoseconds since its epoch); 0 on a nil
// recorder. Cross-node stitching timestamps RPC send/receive with it so
// grafted peer spans can be shifted onto this recorder's timeline.
func (r *Recorder) NowNs() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// Span is a lightweight handle to an open (or finished) span. The zero Span
// is valid and inert: all methods are no-ops, so code instruments
// unconditionally and disabled recording costs only a nil check.
type Span struct {
	r   *Recorder
	idx int32
}

// Active reports whether the span records anything.
func (s Span) Active() bool { return s.r != nil }

// Start opens a root span. On a nil recorder it returns the inert zero Span.
func (r *Recorder) Start(name string) Span {
	if r == nil {
		return Span{}
	}
	return r.startSpan(name, -1)
}

// Start opens a child span of s. On the zero Span it returns the zero Span.
func (s Span) Start(name string) Span {
	if s.r == nil {
		return Span{}
	}
	return s.r.startSpan(name, s.idx)
}

func (r *Recorder) startSpan(name string, parent int32) Span {
	t := r.now()
	r.mu.Lock()
	idx := int32(len(r.spans))
	r.spans = append(r.spans, SpanRecord{Name: name, Parent: parent, Start: t, End: t - 1})
	r.mu.Unlock()
	return Span{r: r, idx: idx}
}

// End closes the span. Ending a span twice keeps the later timestamp.
func (s Span) End() {
	if s.r == nil {
		return
	}
	t := s.r.now()
	s.r.mu.Lock()
	s.r.spans[s.idx].End = t
	s.r.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s Span) SetInt(key string, v int64) {
	if s.r == nil {
		return
	}
	s.set(Attr{Key: key, Kind: AttrInt, Int: v})
}

// SetFloat attaches a float attribute.
func (s Span) SetFloat(key string, v float64) {
	if s.r == nil {
		return
	}
	s.set(Attr{Key: key, Kind: AttrFloat, Float: v})
}

// SetStr attaches a string attribute.
func (s Span) SetStr(key, v string) {
	if s.r == nil {
		return
	}
	s.set(Attr{Key: key, Kind: AttrStr, Str: v})
}

func (s Span) set(a Attr) {
	s.r.mu.Lock()
	sp := &s.r.spans[s.idx]
	sp.Attrs = append(sp.Attrs, a)
	s.r.mu.Unlock()
}

// Count adds delta to the named counter ("eval.graph_cache_hit", ...).
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Snapshot returns a copy of the recorded spans in start order of creation.
// Attr slices are shared with the recorder and must be treated as read-only.
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}

// Counters returns a copy of the counter map.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// PhaseStat aggregates every span of one name.
type PhaseStat struct {
	// Count is how many spans carried the name.
	Count int64 `json:"count"`
	// Seconds is their summed wall-clock duration. Spans from concurrent
	// goroutines sum cumulatively (CPU-seconds-like), so parallel sections
	// can sum past the enclosing span's wall time.
	Seconds float64 `json:"seconds"`
}

// PhaseTotals sums span durations by name. Unfinished spans count with zero
// duration.
func (r *Recorder) PhaseTotals() map[string]PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PhaseStat, 16)
	for i := range r.spans {
		sp := &r.spans[i]
		st := out[sp.Name]
		st.Count++
		st.Seconds += sp.Duration().Seconds()
		out[sp.Name] = st
	}
	return out
}

// PhaseSummary is one row of a sorted phase breakdown (manifest form).
type PhaseSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// PhaseSummaries returns PhaseTotals as a name-sorted slice, convenient for
// manifests and deterministic rendering.
func (r *Recorder) PhaseSummaries() []PhaseSummary {
	totals := r.PhaseTotals()
	if totals == nil {
		return nil
	}
	out := make([]PhaseSummary, 0, len(totals))
	for name, st := range totals {
		out = append(out, PhaseSummary{Name: name, Count: st.Count, Seconds: st.Seconds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// reading is one measured metric. Samples is how many timed calls (or
// requests) the value was computed from; 0 marks a quantity that is a pure
// function of (code, seed) and must repeat exactly.
type reading struct {
	Value   float64
	Unit    string
	Samples int
}

// report collects one run's metrics and the outcome of every correctness
// gate. A gate is one checked operation: it counts toward attempted, and
// toward failed when it does not hold.
type report struct {
	metrics   map[string]reading
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: map[string]reading{}} }

// set records a metric. The name must be declared in spec.go: an undeclared
// name is a bug in the benchmark, not a condition of the run.
func (r *report) set(name string, v float64, samples int) {
	s, ok := findSpec(endToEnd, name)
	if !ok {
		if s, ok = findSpec(perLayer, name); !ok {
			panic("bench: metric " + name + " is not declared in spec.go")
		}
	}
	r.metrics[name] = reading{Value: v, Unit: s.Unit, Samples: samples}
}

// gate records one checked operation.
func (r *report) gate(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// gateErr is gate for operations that report failure as an error.
func (r *report) gateErr(err error, what string) bool {
	r.gate(err == nil, "%s: %v", what, err)
	return err == nil
}

// complete gates on every metric of the table having been measured as a
// finite number: a lane that silently skipped a metric fails the run.
func (r *report) complete(table []metricSpec) {
	for _, s := range table {
		m, ok := r.metrics[s.Name]
		r.gate(ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0), "metric %s was not measured", s.Name)
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// writeText prints every metric by name with its unit and sample count.
func (r *report) writeText(w io.Writer) {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range table {
			m, ok := r.metrics[s.Name]
			if !ok {
				continue
			}
			note := "exact"
			if m.Samples > 0 {
				note = fmt.Sprintf("n=%d", m.Samples)
			}
			fmt.Fprintf(w, "%-40s %16.6g %-12s %s\n", s.Name, m.Value, m.Unit, note)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// writeResult prints the driver's result line: exactly the keys correct,
// attempted, failed and metrics, the latter holding the metrics of table.
func (r *report) writeResult(w io.Writer, table []metricSpec) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, s := range table {
		if m, ok := r.metrics[s.Name]; ok {
			out.Metrics[s.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

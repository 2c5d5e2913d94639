package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Manifest is the JSON run report written by solve -report and by tempartd
// with every durable result: enough context to reproduce a run (inputs,
// seeds, options, build identity) plus its outcome (per-phase timings,
// counters, quality metrics). Phase seconds sum durations across goroutines,
// so parallel sections read like CPU-seconds; with Parallelism 1 they
// partition the wall clock.
type Manifest struct {
	// Tool is the producing command ("solve", "tempartd").
	Tool string `json:"tool"`
	// Node identifies the cluster member that executed the run (tempartd
	// -node-id). Empty for single-process tools. In a fleet this is what
	// lets provenance chains from different nodes be correlated: a result
	// computed by coordinator fan-out carries the coordinator's node id,
	// and each remotely computed subtree is logged on its peer under that
	// peer's id.
	Node string `json:"node,omitempty"`
	// Started/Finished bound the instrumented run in wall-clock time.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Build identifies the binary.
	Build BuildInfo `json:"build"`
	// Inputs captures mesh/seed/option identity as the tool sees it.
	Inputs map[string]any `json:"inputs,omitempty"`
	// Phases is the name-sorted per-phase timing breakdown.
	Phases []PhaseSummary `json:"phases,omitempty"`
	// Counters holds the recorder's counters, name-sorted on encode.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Metrics carries quality numbers (edge cut, imbalance, makespan, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewManifest seeds a manifest with the tool name, build identity, and start
// time.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:    tool,
		Started: time.Now(),
		Build:   ReadBuildInfo(),
		Inputs:  map[string]any{},
		Metrics: map[string]float64{},
	}
}

// Finish stamps the end time and folds the recorder's phases and counters in.
// A nil recorder leaves them empty.
func (m *Manifest) Finish(r *Recorder) {
	m.Finished = time.Now()
	m.Phases = r.PhaseSummaries()
	m.Counters = r.Counters()
}

// WriteJSON renders the manifest as indented JSON. Map keys encode sorted
// (encoding/json guarantees it), so manifests diff cleanly across runs.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// SortedCounterNames returns the manifest's counter names in order — handy
// for stable textual summaries alongside the JSON.
func (m *Manifest) SortedCounterNames() []string {
	names := make([]string, 0, len(m.Counters))
	for k := range m.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

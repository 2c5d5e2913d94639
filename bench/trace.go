package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/obs"
)

// env is what a lane needs from the run it belongs to.
type env struct {
	// ctx carries the recorder in a traced run and nothing in an untraced
	// one, so the same lane code serves both: enter() costs a nil check when
	// nobody records.
	ctx     context.Context
	seed    int64
	rep     *report
	workDir string
	// pause hands the processor to the run's other lanes (see interleave).
	// A lane calls it between repetitions, never inside a timed region, with
	// the share of its work it has done.
	pause func(done float64)
}

func (e *env) traced() bool { return obs.FromContext(e.ctx) != nil }

// enter opens the bench/<layer> span that marks a call from the benchmark
// into one layer's public function. Library spans recorded through the
// returned context nest under it.
func enter(ctx context.Context, layer string) (context.Context, obs.Span) {
	s := obs.StartSpan(ctx, "bench/"+layer)
	return obs.ContextWithSpan(ctx, s), s
}

// eagerMakespan scores a decomposition of m on the simulated cluster, domains
// mapped to processes in blocks, eager scheduler — the paper's reference
// configuration.
func eagerMakespan(e *env, ev *eval.Evaluator, m *mesh.Mesh, part []int32, k int, cluster flusim.Cluster) (float64, error) {
	_, sp := enter(e.ctx, "eval")
	defer sp.End()
	out, err := ev.Evaluate(eval.Spec{Mesh: m, MeshID: m.Name, Part: part, NumDomains: k,
		ProcOf: flusim.BlockMap(k, cluster.NumProcs), Sim: flusim.Config{Cluster: cluster}})
	if err != nil {
		return 0, err
	}
	return float64(out.Makespan), nil
}

func spanSeconds(s *obs.SpanRecord) float64 { return s.Duration().Seconds() }

func childIndex(spans []obs.SpanRecord) [][]int32 {
	kids := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && int(p) < len(spans) {
			kids[p] = append(kids[p], int32(i))
		}
	}
	return kids
}

// layerTime is one row of the per-layer JSON: every span of one name.
// Self is the span's own time, its duration minus what its direct children
// cover (floored at zero where children ran in parallel).
type layerTime struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	SelfSeconds  float64 `json:"self_seconds"`
}

func layerTimes(spans []obs.SpanRecord) []layerTime {
	kids := childIndex(spans)
	byName := map[string]*layerTime{}
	for i := range spans {
		lt := byName[spans[i].Name]
		if lt == nil {
			lt = &layerTime{Name: spans[i].Name}
			byName[spans[i].Name] = lt
		}
		d := spanSeconds(&spans[i])
		self := d
		for _, c := range kids[i] {
			self -= spanSeconds(&spans[c])
		}
		if self < 0 {
			self = 0
		}
		lt.Count++
		lt.TotalSeconds += d
		lt.SelfSeconds += self
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// partitionPhases sums the library's phase spans under the bench/partition
// calls marked with serialAttr.
type partitionPhases struct {
	calls    int
	wall     float64            // Σ bench/partition durations
	covered  float64            // Σ durations of the phases directly below the library's root span
	byName   map[string]float64 // phase name → Σ seconds (two levels deep)
	fmPasses int
}

const serialAttr = "serial"

func isSerialPartition(s *obs.SpanRecord) bool {
	if s.Name != "bench/partition" {
		return false
	}
	for _, a := range s.Attrs {
		if a.Key == serialAttr {
			return a.Int == 1
		}
	}
	return false
}

func serialPartitionPhases(spans []obs.SpanRecord) partitionPhases {
	kids := childIndex(spans)
	pp := partitionPhases{byName: map[string]float64{}}
	for i := range spans {
		if !isSerialPartition(&spans[i]) {
			continue
		}
		pp.calls++
		pp.wall += spanSeconds(&spans[i])
		for _, root := range kids[i] { // the library's "partition" span
			for _, ph := range kids[root] {
				d := spanSeconds(&spans[ph])
				pp.covered += d
				pp.byName[spans[ph].Name] += d
				for _, sub := range kids[ph] {
					pp.byName[spans[sub].Name] += spanSeconds(&spans[sub])
					if spans[sub].Name == "partition/refine/fm_pass" {
						pp.fmPasses++
					}
				}
			}
		}
	}
	return pp
}

// writeTrace stores the traced run's spans as a Chrome trace (open in
// Perfetto) and the per-layer self-time table as JSON, both under dir.
func writeTrace(rec *obs.Recorder, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(layerTimes(rec.Snapshot()), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".layers.json"), append(layers, '\n'), 0o644)
}

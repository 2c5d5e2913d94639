package main

import (
	"encoding/json"
	"io"
)

// writeManifest prints BENCHMARK.json from the tables in spec.go and
// workloads.go (go run -C bench . -manifest > BENCHMARK.json), so the
// manifest is generated, never edited.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: refSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}

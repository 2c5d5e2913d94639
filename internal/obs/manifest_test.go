package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	rec := NewRecorder()
	s := rec.Start("partition")
	s.End()
	rec.Count("trials", 4)

	m := NewManifest("partbench")
	m.Inputs["mesh"] = "unit_cube"
	m.Inputs["seed"] = 42
	m.Metrics["edge_cut"] = 123
	m.Finish(rec)

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Tool != "partbench" {
		t.Errorf("tool = %q", back.Tool)
	}
	if back.Build.GoVersion == "" {
		t.Error("manifest missing build info")
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "partition" {
		t.Errorf("phases = %+v", back.Phases)
	}
	if back.Counters["trials"] != 4 {
		t.Errorf("counters = %v", back.Counters)
	}
	if back.Metrics["edge_cut"] != 123 {
		t.Errorf("metrics = %v", back.Metrics)
	}
	if back.Finished.Before(back.Started) {
		t.Error("finished before started")
	}
}

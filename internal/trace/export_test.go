package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteChromeTrace(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != len(tr.Spans) {
		t.Fatalf("events = %d, want %d", len(events), len(tr.Spans))
	}
	ev := events[0]
	if ev["ph"] != "X" || ev["name"] != "sub0" {
		t.Errorf("event malformed: %v", ev)
	}
	if ev["dur"].(float64) != 4 {
		t.Errorf("dur = %v, want 4", ev["dur"])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "proc,worker,task,sub,start,end\n" +
		"0,0,0,0,0,4\n" +
		"0,0,1,1,6,10\n" +
		"1,0,2,0,0,10\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}

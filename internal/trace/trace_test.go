package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return &Trace{
		NumProcs:       2,
		WorkersPerProc: 1,
		Makespan:       10,
		Spans: []Span{
			{Proc: 0, Worker: 0, Task: 0, Sub: 0, Start: 0, End: 4},
			{Proc: 0, Worker: 0, Task: 1, Sub: 1, Start: 6, End: 10},
			{Proc: 1, Worker: 0, Task: 2, Sub: 0, Start: 0, End: 10},
		},
	}
}

func TestTotalBusyAndPerProc(t *testing.T) {
	tr := sampleTrace()
	if got := tr.TotalBusy(); got != 18 {
		t.Errorf("TotalBusy = %d, want 18", got)
	}
	for p, want := range []int64{8, 10} {
		var got int64
		for _, b := range tr.BusyBySubiteration(2)[p] {
			got += b
		}
		if got != want {
			t.Errorf("proc %d busy = %d, want %d", p, got, want)
		}
	}
}

func TestIdleFraction(t *testing.T) {
	tr := sampleTrace()
	// Capacity 2 workers * 10 = 20; busy 18 → idle 0.1.
	if got := tr.IdleFraction(); got < 0.099 || got > 0.101 {
		t.Errorf("IdleFraction = %v, want 0.1", got)
	}
	tr.WorkersPerProc = 0
	if got := tr.IdleFraction(); got != 0 {
		t.Errorf("unbounded IdleFraction = %v, want 0", got)
	}
}

func TestBusyBySubiteration(t *testing.T) {
	tr := sampleTrace()
	b := tr.BusyBySubiteration(2)
	if b[0][0] != 4 || b[0][1] != 4 {
		t.Errorf("proc 0 by sub = %v, want [4 4]", b[0])
	}
	if b[1][0] != 10 || b[1][1] != 0 {
		t.Errorf("proc 1 by sub = %v, want [10 0]", b[1])
	}
}

func TestProcActiveIntervals(t *testing.T) {
	tr := sampleTrace()
	iv := tr.ProcActiveIntervals()
	if len(iv[0]) != 2 {
		t.Fatalf("proc 0 intervals = %v, want 2 merged intervals", iv[0])
	}
	if iv[0][0] != [2]int64{0, 4} || iv[0][1] != [2]int64{6, 10} {
		t.Errorf("proc 0 intervals = %v", iv[0])
	}
	if len(iv[1]) != 1 || iv[1][0] != [2]int64{0, 10} {
		t.Errorf("proc 1 intervals = %v", iv[1])
	}
}

func TestMergeIntervalsOverlapping(t *testing.T) {
	got := mergeIntervals([][2]int64{{0, 5}, {3, 8}, {10, 12}})
	if len(got) != 2 || got[0] != [2]int64{0, 8} || got[1] != [2]int64{10, 12} {
		t.Errorf("mergeIntervals = %v", got)
	}
}

func TestGanttShape(t *testing.T) {
	tr := sampleTrace()
	g := tr.Gantt(20)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("Gantt rows = %d, want 2\n%s", len(lines), g)
	}
	// Proc 0 has an idle gap → at least one '.'; proc 1 has none.
	if !strings.Contains(lines[0], ".") {
		t.Errorf("proc 0 row shows no idle gap: %s", lines[0])
	}
	if strings.Contains(strings.TrimSuffix(strings.SplitN(lines[1], "|", 2)[1], "|"), ".") {
		t.Errorf("proc 1 row shows idle where none exists: %s", lines[1])
	}
	// Subiteration digits appear.
	if !strings.Contains(lines[0], "0") || !strings.Contains(lines[0], "1") {
		t.Errorf("proc 0 row missing sub digits: %s", lines[0])
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := &Trace{NumProcs: 1}
	if g := tr.Gantt(10); !strings.Contains(g, "empty") {
		t.Errorf("empty trace Gantt = %q", g)
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleTrace()
	bad.Spans[0].End = 99
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted span past makespan")
	}
	bad2 := sampleTrace()
	bad2.Spans[0].End = bad2.Spans[0].Start
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted empty span")
	}
}

func TestCheckNoWorkerOverlap(t *testing.T) {
	tr := sampleTrace()
	if err := tr.CheckNoWorkerOverlap(); err != nil {
		t.Fatal(err)
	}
	tr.Spans = append(tr.Spans, Span{Proc: 1, Worker: 0, Start: 5, End: 7})
	if err := tr.CheckNoWorkerOverlap(); err == nil {
		t.Error("CheckNoWorkerOverlap accepted overlapping spans")
	}
}

// Property: busy-by-subiteration totals equal per-proc busy totals.
func TestBusyDecompositionProperty(t *testing.T) {
	f := func(starts []uint8) bool {
		tr := &Trace{NumProcs: 3, WorkersPerProc: 2}
		for i, s := range starts {
			st := int64(s)
			sp := Span{
				Proc:  int32(i % 3),
				Sub:   int32(i % 4),
				Start: st,
				End:   st + 3,
			}
			tr.Spans = append(tr.Spans, sp)
			if sp.End > tr.Makespan {
				tr.Makespan = sp.End
			}
		}
		bySub := tr.BusyBySubiteration(4)
		perProc := make([]int64, tr.NumProcs)
		for _, sp := range tr.Spans {
			perProc[sp.Proc] += sp.End - sp.Start
		}
		for p := 0; p < 3; p++ {
			var s int64
			for _, v := range bySub[p] {
				s += v
			}
			if s != perProc[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Package trace records and analyses execution traces: which task ran on
// which process/worker over which time interval. It provides the aggregate
// views used throughout the paper's evaluation — per-process Gantt charts
// (Figures 5, 6, 9, 12, 13), busy-time-by-subiteration histograms (Figures
// 7b, 10b) and idle statistics.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one task execution on one worker.
type Span struct {
	// Proc is the process (MPI rank analogue) the task ran on.
	Proc int32
	// Worker is the worker index within the process.
	Worker int32
	// Task identifies the task (index into the task graph).
	Task int32
	// Sub is the task's subiteration, used for color-coding.
	Sub int32
	// Start and End bound the execution in virtual time units.
	Start, End int64
}

// Trace is a complete execution record.
type Trace struct {
	Spans    []Span
	NumProcs int
	// WorkersPerProc is 0 when unbounded.
	WorkersPerProc int
	Makespan       int64
}

// TotalBusy returns the summed span durations.
func (t *Trace) TotalBusy() int64 {
	var b int64
	for _, s := range t.Spans {
		b += s.End - s.Start
	}
	return b
}

// BusyBySubiteration returns busy[proc][sub]: the cumulative computation
// time process proc spent in subiteration sub — the data behind the paper's
// Figures 7b and 10b.
func (t *Trace) BusyBySubiteration(numSubs int) [][]int64 {
	out := make([][]int64, t.NumProcs)
	for p := range out {
		out[p] = make([]int64, numSubs)
	}
	for _, s := range t.Spans {
		if int(s.Sub) < numSubs {
			out[s.Proc][s.Sub] += s.End - s.Start
		}
	}
	return out
}

// IdleFraction returns the fleet-wide idle share: 1 − busy/(capacity·span).
// With unbounded workers it returns 0 (idleness is meaningless there).
func (t *Trace) IdleFraction() float64 {
	if t.WorkersPerProc <= 0 || t.Makespan == 0 {
		return 0
	}
	capacity := int64(t.NumProcs) * int64(t.WorkersPerProc) * t.Makespan
	return 1 - float64(t.TotalBusy())/float64(capacity)
}

// ProcActiveIntervals returns, for each process, the merged time intervals
// during which at least one of its workers was busy.
func (t *Trace) ProcActiveIntervals() [][][2]int64 {
	byProc := make([][][2]int64, t.NumProcs)
	for _, s := range t.Spans {
		byProc[s.Proc] = append(byProc[s.Proc], [2]int64{s.Start, s.End})
	}
	for p := range byProc {
		byProc[p] = mergeIntervals(byProc[p])
	}
	return byProc
}

func mergeIntervals(iv [][2]int64) [][2]int64 {
	if len(iv) == 0 {
		return iv
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x[0] <= last[1] {
			if x[1] > last[1] {
				last[1] = x[1]
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

// Gantt renders an ASCII Gantt chart, one row per process, width columns
// wide. Cells show the subiteration digit (mod 10) of the dominant task in
// that time slot, or '.' when the process is fully idle — the textual
// equivalent of the paper's color-coded traces.
func (t *Trace) Gantt(width int) string {
	if width <= 0 {
		width = 80
	}
	if t.Makespan == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	slot := float64(t.Makespan) / float64(width)

	// busy[p][col] = weight; sub[p][col] = dominant subiteration.
	type cellAgg struct {
		weight int64
		subW   map[int32]int64
	}
	grid := make([][]cellAgg, t.NumProcs)
	for p := range grid {
		grid[p] = make([]cellAgg, width)
	}
	for _, s := range t.Spans {
		c0 := int(float64(s.Start) / slot)
		c1 := int(float64(s.End) / slot)
		if c1 >= width {
			c1 = width - 1
		}
		for c := c0; c <= c1; c++ {
			lo, hi := float64(c)*slot, float64(c+1)*slot
			ov := overlapF(float64(s.Start), float64(s.End), lo, hi)
			if ov <= 0 {
				continue
			}
			// Scale to keep integer weights meaningful for thin slots.
			w := int64(ov*1024) + 1
			cell := &grid[s.Proc][c]
			if cell.subW == nil {
				cell.subW = map[int32]int64{}
			}
			cell.weight += w
			cell.subW[s.Sub] += w
		}
	}
	for p := 0; p < t.NumProcs; p++ {
		fmt.Fprintf(&b, "P%-3d |", p)
		for c := 0; c < width; c++ {
			cell := &grid[p][c]
			if cell.weight == 0 {
				b.WriteByte('.')
				continue
			}
			var best int32
			var bestW int64 = -1
			for sub, w := range cell.subW {
				if w > bestW || (w == bestW && sub < best) {
					best, bestW = sub, w
				}
			}
			b.WriteByte(byte('0' + best%10))
		}
		b.WriteString("|\n")
	}
	return b.String()
}

func overlapF(a0, a1, b0, b1 float64) float64 {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Validate checks span sanity: positive durations within the makespan and
// in-range processes.
func (t *Trace) Validate() error {
	for i, s := range t.Spans {
		if s.Start < 0 || s.End <= s.Start {
			return fmt.Errorf("trace: span %d has bad interval [%d,%d)", i, s.Start, s.End)
		}
		if s.End > t.Makespan {
			return fmt.Errorf("trace: span %d ends at %d past makespan %d", i, s.End, t.Makespan)
		}
		if s.Proc < 0 || int(s.Proc) >= t.NumProcs {
			return fmt.Errorf("trace: span %d on process %d of %d", i, s.Proc, t.NumProcs)
		}
	}
	return nil
}

// CheckNoWorkerOverlap verifies no (proc, worker) pair runs two spans at
// once; meaningful only for bounded-worker traces.
func (t *Trace) CheckNoWorkerOverlap() error {
	type key struct{ p, w int32 }
	byWorker := map[key][]Span{}
	for _, s := range t.Spans {
		k := key{s.Proc, s.Worker}
		byWorker[k] = append(byWorker[k], s)
	}
	for k, spans := range byWorker {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End {
				return fmt.Errorf("trace: proc %d worker %d overlaps at t=%d", k.p, k.w, spans[i].Start)
			}
		}
	}
	return nil
}

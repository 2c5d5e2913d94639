package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// worsening is how much worse b reads than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(s metricSpec, a, b float64) float64 {
	if s.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the benchmark's own noise check: the whole workload set twice in
// one invocation, the second pass in reverse order, same seed, same code.
// Every (workload, metric) pair is printed with the relative difference of
// the two passes beside its bound; a pair that differs by more than its bound
// in either direction fails the check, because on an unchanged tree either
// pass could have been the parent. It returns the process exit code.
func runAA(size func(workload) workload, seed int64, workDir string) int {
	reports := [2]map[string]*report{{}, {}}
	for pass := range reports {
		order := append([]workload(nil), workloads...)
		if pass == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			rep, err := runWorkload(size(w), seed, false, workDir, os.Stderr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			reports[pass][w.Name] = rep
		}
	}

	exit := 0
	fmt.Printf("| workload | metric | pass A | pass B | differ by | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		a, b := reports[0][w.Name], reports[1][w.Name]
		if !a.correct() || !b.correct() {
			fmt.Printf("| %s | correctness gates | %d failed | %d failed | | | FAIL |\n", w.Name, a.failed, b.failed)
			exit = 1
		}
		for _, s := range endToEnd {
			va, vb := a.metrics[s.Name].Value, b.metrics[s.Name].Value
			diff := math.Abs(worsening(s, va, vb))
			verdict := "ok"
			switch {
			case a.metrics[s.Name].Samples == 0 && va != vb:
				verdict = "FAIL (must repeat exactly)"
				exit = 1
			case diff > s.Bound || math.IsNaN(diff):
				verdict = "FAIL"
				exit = 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.1f%% | %s |\n", w.Name, s.Name, va, vb, 100*diff, 100*s.Bound, verdict)
		}
	}
	return exit
}

// Command bench is the repository's benchmark: four workloads, sixteen
// end-to-end metrics, and a traced run that reports a number for every layer
// a request crosses. It drives the layers through their public functions
// only. README.md explains the design; BENCHMARK.json is its manifest.
//
//	go run -C bench . --workload offline_cylinder --seed 1 --seconds 18 --trace 0
//	go run -C bench . -aa
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tempart/internal/obs"
)

// lane is one phase of a workload: the part of the system one group of
// metrics measures.
type lane interface {
	name() string
	// setup builds everything the lane needs before timing can start.
	setup(e *env) error
	// measure runs the timed work and the correctness gates and records the
	// lane's metrics.
	measure(e *env)
	// close releases what setup built.
	close()
}

// probeSeed is the seed every probe lane replays, whatever the run's seed.
const probeSeed = 0

// forLane is e as lane l of workload w sees it: the home lane takes the run's
// seed, a probe the fixed one.
func (e *env) forLane(w workload, l lane) *env {
	le := *e
	if l.name() != w.Home {
		le.seed = probeSeed
	}
	return &le
}

// interleave runs the lanes' measurements as coroutines: exactly one runs at a
// time, and whenever it pauses the processor goes to the lane that has done
// the smallest share of its work. Every lane's repetitions are thereby spread
// over the whole run. The machine's speed wanders by ±15 % over seconds to
// minutes; a probe that took its thirty samples in one second inherited
// whatever that second was like (spread of its median over ten runs: 10 –
// 24 %), while samples spread over the run see what the home lane sees.
func interleave(runs []func(pause func(done float64))) {
	type turn struct {
		resume chan struct{}
		done   float64
	}
	const finished = 2.0 // beyond any share a lane reports
	parked := make(chan struct{})
	turns := make([]*turn, len(runs))
	for i, run := range runs {
		t := &turn{resume: make(chan struct{})}
		turns[i] = t
		go func() {
			<-t.resume
			run(func(done float64) {
				t.done = done
				parked <- struct{}{}
				<-t.resume
			})
			t.done = finished
			parked <- struct{}{}
		}()
	}
	for {
		next := turns[0]
		for _, t := range turns[1:] {
			if t.done < next.done {
				next = t
			}
		}
		if next.done == finished {
			return
		}
		next.resume <- struct{}{}
		<-parked
	}
}

// setUp builds every lane of w and returns how long that took.
func setUp(e *env, w workload, lanes []lane) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for _, l := range lanes {
		if err := l.setup(e.forLane(w, l)); err != nil {
			return 0, fmt.Errorf("%s: %s set-up: %w", w.Name, l.name(), err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// setUpAgain times the set-up of a throw-away copy of w's lanes.
func setUpAgain(e *env, w workload) (float64, error) {
	lanes := w.lanes()
	defer closeAll(lanes)
	return setUp(e, w, lanes)
}

func closeAll(lanes []lane) {
	for _, l := range lanes {
		l.close()
	}
}

// runWorkload executes one workload and returns its report.
func runWorkload(w workload, seed int64, traced bool, workDir string, progress io.Writer) (*report, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{ctx: context.Background(), seed: seed, rep: newReport(), workDir: workDir, pause: func(float64) {}}
	if traced {
		e.ctx = obs.WithRecorder(e.ctx, obs.NewRecorder())
	}

	// setup_s is the median of three fresh set-ups, taken before, in the
	// middle of and after the measurement, so that one stall of the machine
	// reaches at most one of them. The first one's products are measured.
	lanes := w.lanes()
	defer closeAll(lanes)
	first, err := setUp(e, w, lanes)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var middle float64
	var middleErr error
	runs := []func(pause func(float64)){func(pause func(float64)) {
		pause(0.5) // come back when every lane is half done
		middle, middleErr = setUpAgain(e, w)
	}}
	for _, l := range lanes {
		le := e.forLane(w, l)
		runs = append(runs, func(pause func(float64)) {
			le.pause = pause
			l.measure(le)
		})
	}
	interleave(runs)
	fmt.Fprintf(progress, "%s: measured %.1fs\n", w.Name, time.Since(t0).Seconds())
	last, err := setUpAgain(e, w)
	if err = errors.Join(middleErr, err); err != nil {
		return nil, err
	}
	e.rep.set("setup_s", median([]float64{first, middle, last}), 3)

	table := endToEnd
	if traced {
		table = perLayer
		if err := writeTrace(obs.FromContext(e.ctx), filepath.Join(workDir, "trace"), w.Name); err != nil {
			return nil, err
		}
	}
	e.rep.complete(table)
	return e.rep, nil
}

// checkoutRoot is the nearest ancestor of the working directory that holds
// BENCHMARK.json (go run -C bench starts the program inside bench/).
func checkoutRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed of the partition seeds, the request schedule and the drift schedule")
		secs    = flag.Float64("seconds", refSeconds, "nominal measuring time; scales every operation count linearly")
		trace   = flag.Int("trace", 0, "1: attach a span recorder and report the per-layer metrics instead")
		short   = flag.Bool("short", false, "smoke-test sizes (numbers are meaningless)")
		aa      = flag.Bool("aa", false, "run every workload twice and compare the two runs against the bounds")
		workDir = flag.String("workdir", "", "scratch directory (default <checkout>/.bench_work)")
		manif   = flag.Bool("manifest", false, "print BENCHMARK.json from the tables in spec.go and workloads.go")
	)
	flag.Parse()
	if *manif {
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	// Two workers are what the sandbox has; pinning makes the "parallel"
	// variants mean the same thing on a larger machine.
	runtime.GOMAXPROCS(int(math.Min(2, float64(runtime.NumCPU()))))
	if *workDir == "" {
		*workDir = filepath.Join(checkoutRoot(), ".bench_work")
	}
	size := func(w workload, traced bool) workload {
		switch {
		case *short:
			return w.short()
		case traced:
			return w.scaled(*secs/refSeconds/4, loose)
		default:
			return w.scaled(*secs/refSeconds, gated)
		}
	}

	if *aa {
		os.Exit(runAA(func(w workload) workload { return size(w, false) }, *seed, *workDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	traced := *trace != 0
	rep, err := runWorkload(size(w, traced), *seed, traced, *workDir, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.writeText(os.Stdout)
	table := endToEnd
	if traced {
		table = perLayer
	}
	if err := rep.writeResult(os.Stdout, table); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// Command benchmark is this repository's benchmark: four wall-clock
// workloads with five gated end-to-end metrics each, and a traced run
// that times the calls into each layer from outside. See README.md.
//
// One measured run, as the driver invokes it:
//
//	go run ./benchmark --workload small_hot --seed 1 --seconds 28 --trace 0
//
// Without --workload it runs every workload in turn, each in a fresh
// process; -sets, -compare and -traced are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// setupPerBatch is how many fresh processes one batch times set-up in.
const setupPerBatch = 5

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a measured run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one measured run.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	allowShort bool
	out        string
}

func main() {
	// The library sizes its simulated device's worker pool from
	// GOMAXPROCS; pinning it keeps the numbers independent of the host's
	// core count.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: insitu_large, small_hot, cold_compile or serve_closed (default: all, one process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 28, "length of the measured window (28 is BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics with tracing off")
	flag.BoolVar(&o.allowShort, "allow-short", false, "smoke runs only: accept fewer than 400 samples, one set-up child per batch, a tenth of the warm-up")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for traces and run files")
	traced := flag.Bool("traced", false, "with no -workload: traced run of every workload")
	sets := flag.Int("sets", 0, "repeatability self-check: run this many interleaved sets and compare their medians")
	runs := flag.Int("runs", 0, "passes over every workload, pass i on seed+i (default 1, or 3 per set with -sets)")
	compare := flag.Bool("compare", false, "compare two run files: -compare base.json new.json")
	setupOnly := flag.Bool("setup-only", false, "internal: time set-up in this fresh process and print it")
	flag.Parse()
	if *traced {
		o.trace = 1
	}

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *setupOnly:
		err = setupChild(o)
	case o.workload != "":
		err = runOne(o)
	case *sets > 0:
		err = selfCheck(o, *sets, *runs)
	default:
		err = runPasses(o, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// inputs generates the named workload's inputs from the seed.
func (o options) inputs() (*inputs, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return generate(sp, o.seed)
}

// setupResult is what a -setup-only child prints.
type setupResult struct {
	SetupS float64 `json:"setup_s"`
	Hash   string  `json:"hash"`
}

// setupChild generates the inputs, pre-faults the heap, times first
// library call to first verified result in this fresh process, and
// prints it.
func setupChild(o options) error {
	in, err := o.inputs()
	if err != nil {
		return err
	}
	prefaultHeap()
	s, setup, err := open(in)
	if err != nil {
		return err
	}
	s.close()
	return json.NewEncoder(os.Stdout).Encode(setupResult{setup.Seconds(), in.hash})
}

// prefaultHeap touches and frees 64 MB of Go heap, so the set-up that
// follows allocates from pages the OS has already backed. First-touch
// page faults are the host's cost, not the library's, and on a shared
// box they were the noisiest part of a fresh process (they moved the
// median 30 % between host phases).
func prefaultHeap() {
	ballast := make([]byte, 64<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	ballast = nil
	runtime.GC()
}

// setupBatch runs setupPerBatch fresh processes one after another and
// returns their set-up times. Each child must have generated the same
// inputs as this process.
func setupBatch(o options, hash string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	children := setupPerBatch
	if o.allowShort {
		children = 1
	}
	var times []float64
	for i := 0; i < children; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", o.workload, "-seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var r setupResult
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		if r.Hash != hash {
			return nil, fmt.Errorf("set-up child generated inputs %s, this process %s: generation is not deterministic", r.Hash, hash)
		}
		times = append(times, r.SetupS)
	}
	return times, nil
}

// runOne is one measured run of one workload: generate inputs, verify
// outputs, then either measure the end-to-end metrics with tracing off
// or replay the workload traced. Its last line of output is the report.
func runOne(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	window := time.Duration(o.seconds * float64(time.Second))
	in, err := o.inputs()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d inputs %s window %v\n", o.workload, o.seed, in.hash, window)

	var rep *report
	if o.trace == 1 {
		rep, err = runTraced(in, window, o)
	} else {
		rep, err = runEndToEnd(in, window, o)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// Command dfg-bench regenerates every table and figure of the paper's
// evaluation section and writes them as aligned text (and CSV for the
// sweep data) to stdout or a results directory.
//
//	dfg-bench -all                     # everything, default scale 1/4
//	dfg-bench -table2                  # just the device-event counts
//	dfg-bench -fig5 -fig6 -scale 8     # the sweep at 1/8 linear scale
//	dfg-bench -all -out results/       # also write results/*.txt|csv
//	dfg-bench -repeat 3                # warm-vs-cold counts (the repeat.golden gate)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dfg/internal/metrics"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every table and figure")
		table1    = flag.Bool("table1", false, "Table I: evaluation sub-grids")
		table2    = flag.Bool("table2", false, "Table II: device events per expression and strategy")
		fig2      = flag.Bool("fig2", false, "Figure 2: per-strategy memory constraints on the example network")
		fig5      = flag.Bool("fig5", false, "Figure 5: single-device runtime sweep")
		fig6      = flag.Bool("fig6", false, "Figure 6: single-device memory sweep")
		scale     = flag.Int("scale", 4, "divide grid dimensions by this factor (device memory by its cube)")
		grids     = flag.Int("grids", 0, "limit the sweep to the first N sub-grids (0 = all 12)")
		repeats   = flag.Int("repeats", 3, "repetitions per case (paper used 7, trimmed mean)")
		seed      = flag.Int64("seed", 42, "synthetic data seed")
		streaming = flag.Bool("streaming", false, "include the future-work streaming strategy in the sweep")
		opt       = flag.String("opt", "paper", "optimisation level expressions compile at: paper (the reproduction) or O2")
		outDir    = flag.String("out", "", "also write each artifact into this directory")
		repeat    = flag.Int("repeat", 0, "warm-vs-cold prepared-eval smoke: prepare Q-criterion once, eval cold then N warm times per strategy; exits 1 if warm evals allocate device buffers")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig2, *fig5, *fig6 = true, true, true, true, true
	}
	if *repeat > 0 {
		runRepeat(*repeat)
		return
	}
	if !(*table1 || *table2 || *fig2 || *fig5 || *fig6) {
		flag.Usage()
		os.Exit(2)
	}

	emit := func(name string, tbl *metrics.Table, withCSV bool) {
		fmt.Println(tbl.Text())
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(tbl.Text()), 0o644); err != nil {
			fatal(err)
		}
		if withCSV {
			if err := os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(tbl.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	if *table1 {
		emit("table1", metrics.TableI(*scale), true)
	}
	if *table2 {
		tbl, err := metrics.TableIIAt(*opt)
		if err != nil {
			fatal(err)
		}
		emit("table2", tbl, true)
	}
	if *fig2 {
		tbl, err := metrics.Fig2()
		if err != nil {
			fatal(err)
		}
		emit("fig2", tbl, false)
	}
	if *fig5 || *fig6 {
		fmt.Fprintf(os.Stderr, "dfg-bench: running sweep (scale 1/%d, %d repeats)...\n", *scale, *repeats)
		cfg := metrics.Config{
			LinScale: *scale, MaxGrids: *grids, Repeats: *repeats, Seed: *seed,
			IncludeStreaming: *streaming, Opt: *opt,
		}
		results, err := metrics.RunCases(cfg)
		if err != nil {
			fatal(err)
		}
		if *fig5 {
			emit("fig5", metrics.Fig5Table(results), true)
			emit("fig5_speedups", metrics.SpeedupTable(results), true)
		}
		if *fig6 {
			emit("fig6", metrics.Fig6Table(results), true)
		}
		summary := metrics.Summary(results)
		fmt.Println(summary)
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, "summary.txt"), []byte(summary), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

// runRepeat is the warm-vs-cold smoke mode: it prepares the Q-criterion
// expression once per strategy, evaluates it cold and then warm times
// warm, prints the counts (what internal/metrics/testdata/repeat.golden
// pins), and fails (exit 1) if any strategy's warm evaluations allocated
// fresh device buffers or diverged from the cold output.
func runRepeat(warm int) {
	cases, err := metrics.RunRepeat(warm)
	if err != nil {
		fatal(err)
	}
	fmt.Print(metrics.RepeatTable(cases).Text())
	ok := true
	for _, c := range cases {
		if !c.Reduced() {
			ok = false
			fmt.Fprintf(os.Stderr, "dfg-bench: %s warm path did not beat cold: allocs cold=%d warm=%d identical=%v\n",
				c.Strategy, c.ColdAllocs, c.WarmAllocs, c.Identical)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfg-bench:", err)
	os.Exit(1)
}

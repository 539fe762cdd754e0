// Command dfg-bench regenerates every table and figure of the paper's
// evaluation section and writes them as aligned text (and CSV for the
// sweep data) to stdout or a results directory.
//
//	dfg-bench -all                     # everything, default scale 1/4
//	dfg-bench -table2                  # just the device-event counts
//	dfg-bench -fig5 -fig6 -scale 8     # the sweep at 1/8 linear scale
//	dfg-bench -all -out results/       # also write results/*.txt|csv
//	dfg-bench -json                    # sweep as machine-readable JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dfg/internal/metrics"
	"dfg/internal/perfdb"
	"dfg/internal/strategy"
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
		asJSON    = flag.Bool("json", false, "emit the sweep as machine-readable JSON on stdout (per-grid, per-strategy)")
		repeat    = flag.Int("repeat", 0, "warm-vs-cold prepared-eval smoke: prepare Q-criterion once, eval cold then N warm times per strategy; exits 1 if warm evals allocate device buffers")
		strat     = flag.String("strategy", "", "restrict -repeat to one strategy (e.g. vm, fusion); empty runs all")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig2, *fig5, *fig6 = true, true, true, true, true
	}
	if *repeat > 0 {
		runRepeat(*repeat, *strat, *asJSON, *outDir)
		return
	}
	if !(*table1 || *table2 || *fig2 || *fig5 || *fig6 || *asJSON) {
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
	if *fig5 || *fig6 || *asJSON {
		fmt.Fprintf(os.Stderr, "dfg-bench: running sweep (scale 1/%d, %d repeats)...\n", *scale, *repeats)
		cfg := metrics.Config{
			LinScale: *scale, MaxGrids: *grids, Repeats: *repeats, Seed: *seed,
			IncludeStreaming: *streaming, Opt: *opt,
		}
		results, err := metrics.RunCases(cfg)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			doc, err := jsonDoc(cfg, results)
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(doc)
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					fatal(err)
				}
				if err := os.WriteFile(filepath.Join(*outDir, "results.json"), doc, 0o644); err != nil {
					fatal(err)
				}
			}
		}
		if *fig5 {
			emit("fig5", metrics.Fig5Table(results), true)
			emit("fig5_speedups", metrics.SpeedupTable(results), true)
		}
		if *fig6 {
			emit("fig6", metrics.Fig6Table(results), true)
		}
		// The human-readable summary would corrupt a pure-JSON stdout, so
		// it only prints alongside the figure tables.
		if *fig5 || *fig6 {
			summary := metrics.Summary(results)
			fmt.Println(summary)
			if *outDir != "" {
				if err := os.WriteFile(filepath.Join(*outDir, "summary.txt"), []byte(summary), 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}
}

// jsonCase is the machine-readable form of one sweep case: identity,
// outcome, and both modeled and measured costs, with durations in
// nanoseconds and a pre-formatted string for eyeballing.
type jsonCase struct {
	Expr       string `json:"expr"`
	Opt        string `json:"opt"`
	Strategy   string `json:"strategy"`
	Device     string `json:"device"`
	Dims       [3]int `json:"dims"`
	Cells      int    `json:"cells"`
	DataBytes  int64  `json:"data_bytes"`
	Failed     bool   `json:"failed"`
	Reason     string `json:"reason,omitempty"`
	DevTimeNS  int64  `json:"device_time_ns"`
	DevTime    string `json:"device_time"`
	WallNS     int64  `json:"wall_ns"`
	Wall       string `json:"wall"`
	PeakBytes  int64  `json:"peak_device_bytes"`
	LimitBytes int64  `json:"gpu_limit_bytes"`
	Writes     int    `json:"device_writes"`
	Reads      int    `json:"device_reads"`
	Kernels    int    `json:"kernel_launches"`
	WriteBytes int64  `json:"write_bytes"`
	ReadBytes  int64  `json:"read_bytes"`
}

// jsonDoc renders the sweep configuration and every case as an indented
// JSON document, one object per (grid, expression, strategy, device).
func jsonDoc(cfg metrics.Config, results []metrics.CaseResult) ([]byte, error) {
	cases := make([]jsonCase, len(results))
	for i, r := range results {
		cases[i] = jsonCase{
			Expr:       r.Expr,
			Opt:        r.Opt,
			Strategy:   r.Exec,
			Device:     r.Device.String(),
			Dims:       [3]int{r.Grid.Dims.NX, r.Grid.Dims.NY, r.Grid.Dims.NZ},
			Cells:      r.Grid.Cells,
			DataBytes:  r.Grid.DataBytes,
			Failed:     r.Failed,
			Reason:     r.Reason,
			DevTimeNS:  r.DevTime.Nanoseconds(),
			DevTime:    r.DevTime.String(),
			WallNS:     r.Wall.Nanoseconds(),
			Wall:       r.Wall.String(),
			PeakBytes:  r.PeakMem,
			LimitBytes: r.GPULimit,
			Writes:     r.Profile.Writes,
			Reads:      r.Profile.Reads,
			Kernels:    r.Profile.Kernels,
			WriteBytes: r.Profile.WriteBytes,
			ReadBytes:  r.Profile.ReadBytes,
		}
	}
	doc := struct {
		// Meta stamps the run with schema, git revision and host/device
		// identity so two results.json files compared by dfg-report are
		// attributable to their builds.
		Meta   perfdb.Meta `json:"meta"`
		Config struct {
			LinScale  int    `json:"lin_scale"`
			MaxGrids  int    `json:"max_grids"`
			Repeats   int    `json:"repeats"`
			Seed      int64  `json:"seed"`
			Streaming bool   `json:"streaming"`
			Opt       string `json:"opt"`
		} `json:"config"`
		Cases []jsonCase `json:"cases"`
	}{Meta: perfdb.CollectMeta("CPU+GPU"), Cases: cases}
	doc.Config.LinScale = cfg.LinScale
	doc.Config.MaxGrids = cfg.MaxGrids
	doc.Config.Repeats = cfg.Repeats
	doc.Config.Seed = cfg.Seed
	doc.Config.Streaming = cfg.IncludeStreaming
	doc.Config.Opt = cfg.Opt
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// runRepeat is the warm-vs-cold smoke mode: it prepares the Q-criterion
// expression once per strategy, evaluates it cold and then warm times
// warm, and fails (exit 1) if any strategy's warm evaluations allocated
// fresh device buffers or diverged from the cold output — the CI gate
// on the prepared-plan and buffer-arena machinery.
func runRepeat(warm int, strat string, asJSON bool, outDir string) {
	names := metrics.RepeatNames()
	if strat != "" {
		if strat != metrics.BatchOfOneName {
			if _, err := strategy.ForName(strat); err != nil {
				fatal(err)
			}
		}
		names = []string{strat}
	}
	cases, err := metrics.RunRepeatFor(warm, names)
	if err != nil {
		fatal(err)
	}
	if asJSON {
		doc, err := json.MarshalIndent(struct {
			Meta      perfdb.Meta          `json:"meta"`
			WarmEvals int                  `json:"warm_evals"`
			Cases     []metrics.RepeatCase `json:"cases"`
		}{perfdb.CollectMeta("CPU"), warm, cases}, "", "  ")
		if err != nil {
			fatal(err)
		}
		doc = append(doc, '\n')
		os.Stdout.Write(doc)
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				fatal(err)
			}
			if err := os.WriteFile(filepath.Join(outDir, "warmcold.json"), doc, 0o644); err != nil {
				fatal(err)
			}
		}
	} else {
		fmt.Println(metrics.RepeatTable(cases).Text())
	}
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

// Command dfg-report is the perf-database regression gate: it loads two
// perf snapshots, aggregates them per (expression, strategy, opt level,
// size bucket), compares new against base, prints a markdown summary,
// and exits non-zero when the comparison regresses.
//
//	dfg-report -base results/perf_baseline.json -new perf/latest.json
//	dfg-report -base old.jsonl -new new.jsonl -v
//	dfg-report -check-flight perf/flight-*.json           # validate a postmortem dump
//
// Both inputs may be either persisted perf format — a perfdb JSONL
// snapshot (what serve.Pool.FlushPerf and dfg-serve -perf-dir write) or
// dfg-bench warm/cold JSON (-repeat -json); the format is sniffed per
// file.
//
// The gate speaks counts only (kernel launches, device writes, warm-path
// allocations, ...): they are exact on any host, and compare against an
// absolute tolerance that defaults to zero — one extra warm-path
// allocation fails the gate. Wall-clock comparison is benchmark/'s job.
package main

import (
	"flag"
	"fmt"
	"os"

	"dfg/internal/perfdb"
)

func main() {
	var (
		base        = flag.String("base", "", "baseline snapshot (perfdb JSONL or dfg-bench JSON)")
		newer       = flag.String("new", "", "candidate snapshot to gate against the baseline")
		countTol    = flag.Float64("count-tol", 0, "absolute tolerance on count metrics (default 0: +1 alloc fails)")
		verbose     = flag.Bool("v", false, "list every compared metric, not just regressions")
		checkFlight = flag.String("check-flight", "", "validate a flight-recorder dump instead of comparing snapshots")
	)
	flag.Parse()

	if *checkFlight != "" {
		checkFlightDump(*checkFlight)
		return
	}
	if *base == "" || *newer == "" {
		flag.Usage()
		os.Exit(2)
	}

	baseSamples, baseMeta, err := perfdb.LoadAny(*base)
	if err != nil {
		fatal(err)
	}
	newSamples, newMeta, err := perfdb.LoadAny(*newer)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("base: %s  (%d samples%s)\n", *base, len(baseSamples), describe(baseMeta))
	fmt.Printf("new:  %s  (%d samples%s)\n\n", *newer, len(newSamples), describe(newMeta))

	v := perfdb.Compare(
		perfdb.Aggregate(baseSamples),
		perfdb.Aggregate(newSamples),
		perfdb.CompareOptions{CountTol: *countTol},
	)
	fmt.Print(v.Markdown(*verbose))
	if !v.OK() {
		fmt.Fprintf(os.Stderr, "dfg-report: %d regression(s)\n", len(v.Regressions()))
		os.Exit(1)
	}
	fmt.Println("verdict: OK")
}

// describe renders the identity a snapshot's meta carries, if any.
func describe(m perfdb.Meta) string {
	if m.GitRev == "" && m.Host == "" && m.GoVersion == "" {
		return ""
	}
	s := ""
	if m.GitRev != "" {
		s += ", rev " + m.GitRev
	}
	if m.GoVersion != "" {
		s += ", " + m.GoVersion
	}
	if m.Host != "" {
		s += ", host " + m.Host
	}
	return s
}

// checkFlightDump loads a flight-recorder dump and verifies it is
// structurally sound: parseable, schema-matched, and — when any entry
// failed — carrying the failing request's span tree. CI's chaos job uses
// this to assert a breaker trip produced a usable postmortem.
func checkFlightDump(path string) {
	d, err := perfdb.LoadFlight(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flight dump %s: reason %q, %d entries, %d recent records, rev %s\n",
		path, d.Reason, len(d.Entries), len(d.Recent), orDash(d.Meta.GitRev))
	errs := d.EntryErrs()
	fmt.Printf("failed entries: %d\n", len(errs))
	for _, e := range errs {
		span := "no span"
		if e.Span != nil {
			span = "span retained"
		}
		fmt.Printf("  worker %d trace %s: %s (%s)\n", e.Worker, orDash(e.TraceID), e.Err, span)
	}
	if len(d.Entries) == 0 {
		fatal(fmt.Errorf("%s: dump has no entries", path))
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfg-report:", err)
	os.Exit(1)
}

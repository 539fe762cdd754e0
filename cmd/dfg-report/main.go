// Command dfg-report validates the perf artifacts a serve pool leaves
// behind. It compares nothing: counts are gated as goldens
// (internal/metrics/testdata, like Table II) and wall-clock comparison
// is benchmark/'s job.
//
//	dfg-report -check-snapshot perf/perfdb-*.jsonl   # a perf-database snapshot
//	dfg-report -check-flight perf/flight-*.json      # a postmortem flight dump
//
// Either check exits non-zero when the artifact is unusable.
package main

import (
	"flag"
	"fmt"
	"os"

	"dfg/internal/perfdb"
)

func main() {
	var (
		checkFlight   = flag.String("check-flight", "", "validate a flight dump: parseable, current schema, not empty")
		checkSnapshot = flag.String("check-snapshot", "", "validate a perfdb JSONL snapshot: parseable, current schema, at least one record")
	)
	flag.Parse()
	switch {
	case *checkFlight != "":
		checkFlightDump(*checkFlight)
	case *checkSnapshot != "":
		checkSnapshotFile(*checkSnapshot)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkSnapshotFile loads a perfdb snapshot and fails on a parse error,
// a foreign schema or zero records. CI's chaos job runs it on the
// snapshot its soak persisted.
func checkSnapshotFile(path string) {
	meta, recs, err := perfdb.Load(path)
	if err != nil {
		fatal(err)
	}
	if meta.Schema != perfdb.Schema {
		fatal(fmt.Errorf("%s: schema %q, want %q", path, meta.Schema, perfdb.Schema))
	}
	fmt.Printf("snapshot %s: %d records, rev %s\n", path, len(recs), orDash(meta.GitRev))
	if len(recs) == 0 {
		fatal(fmt.Errorf("%s: snapshot has no records", path))
	}
}

// checkFlightDump loads a flight dump and lists its failed traces — the
// ones whose root carries an error attribute — by worker and trace id.
// It fails on a dump with neither traces nor recent records. CI's chaos
// job runs it on every dump its soak left.
func checkFlightDump(path string) {
	d, err := perfdb.LoadFlight(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flight dump %s: reason %q, %d traces, %d recent records, rev %s\n",
		path, d.Reason, len(d.Traces), len(d.Recent), orDash(d.Meta.GitRev))
	for _, tr := range d.Traces {
		if msg := tr.Attr("error"); msg != "" {
			fmt.Printf("  failed: worker %s trace %s: %s\n", orDash(tr.Attr("worker")), orDash(tr.ID), msg)
		}
	}
	if len(d.Traces) == 0 && len(d.Recent) == 0 {
		fatal(fmt.Errorf("%s: dump is empty", path))
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

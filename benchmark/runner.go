package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runRecord is one measured run as the run files store it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Inputs   string `json:"inputs"`
	Report   report `json:"report"`
}

// runChild measures one workload in a fresh process — fresh heap, fresh
// sync.Once state such as the parser's LALR table — echoing its output.
func runChild(o options, workload string, w io.Writer) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: o.seed, Trace: o.trace}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out}
	if o.allowShort {
		args = append(args, "-allow-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(w, last)
		}
		var name string
		var seed int64
		fmt.Sscanf(last, "workload %s seed %d inputs %s", &name, &seed, &rec.Inputs)
	}
	if err := json.Unmarshal([]byte(last), &rec.Report); err != nil {
		return rec, fmt.Errorf("%s: last line %q: %w", workload, last, err)
	}
	return rec, nil
}

// runAll measures every workload once, one after another, and prints
// each metric by name with its unit.
func runAll(o options, w io.Writer) ([]runRecord, error) {
	var recs []runRecord
	for _, sp := range specs {
		rec, err := runChild(o, sp.name, w)
		if err != nil {
			return recs, err
		}
		if !rec.Report.Correct {
			return recs, fmt.Errorf("%s: %d of %d ops failed", sp.name, rec.Report.Failed, rec.Report.Attempted)
		}
		recs = append(recs, rec)
		if o.trace == 0 {
			for _, d := range endToEnd {
				fmt.Fprintf(w, "%s/%-20s %16.6g %s\n", sp.name, d.name, rec.Report.Metrics[d.name].Value, d.unit)
			}
		}
	}
	return recs, nil
}

// runPasses is the default mode: n passes over every workload, pass i
// on seed+i, stored as a run file for -compare.
func runPasses(o options, n int) error {
	var recs []runRecord
	for i := 0; i < max(n, 1); i++ {
		pass := o
		pass.seed += int64(i)
		r, err := runAll(pass, os.Stdout)
		if err != nil {
			return err
		}
		recs = append(recs, r...)
	}
	name := "runs-e2e.json"
	if o.trace == 1 {
		name = "runs-traced.json"
	}
	return writeRuns(filepath.Join(o.out, name), recs)
}

func writeRuns(path string, recs []runRecord) error {
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Println("run file:", path)
	return os.WriteFile(path, data, 0o644)
}

func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// values collects one metric of one workload across runs, in run order.
func values(recs []runRecord, workload, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Report.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// worseBy is how much worse new reads than base, as a share of base,
// positive when worse in the metric's direction.
func worseBy(d metricDef, base, new float64) float64 {
	by := (new - base) / math.Abs(base)
	if d.better == "higher" {
		by = -by
	}
	return by
}

// selfCheck is the repeatability check: sets interleaved sets of runs
// passes each (A B A B ...), set medians compared against each metric's
// bound, and one traced pass per set whose exact counts — like the
// generated inputs — must not differ at all.
func selfCheck(o options, sets, runs int) error {
	if runs <= 0 {
		runs = 3
	}
	e2e := make([][]runRecord, sets)
	traced := make([][]runRecord, sets)
	for i := 0; i < runs; i++ {
		for s := range e2e {
			pass := o
			pass.seed += int64(i)
			r, err := runAll(pass, os.Stdout)
			if err != nil {
				return err
			}
			e2e[s] = append(e2e[s], r...)
		}
	}
	for s := range traced {
		pass := o
		pass.trace = 1
		r, err := runAll(pass, io.Discard)
		if err != nil {
			return err
		}
		traced[s] = r
	}

	var problems []string
	for _, sp := range specs {
		for _, d := range endToEnd {
			var medians []float64
			for s := range e2e {
				q1, q2, q3 := quartiles(values(e2e[s], sp.name, d.name))
				fmt.Printf("%s/%s set %d: median %.6g quartiles %.6g..%.6g %s\n", sp.name, d.name, s, q2, q1, q3, d.unit)
				medians = append(medians, q2)
			}
			for s := 1; s < sets; s++ {
				if by := math.Abs(worseBy(d, medians[0], medians[s])); by > d.bound {
					problems = append(problems, fmt.Sprintf("%s/%s: set %d median differs from set 0 by %.4f, bound %g", sp.name, d.name, s, by, d.bound))
				}
			}
		}
		for _, d := range perLayer {
			for s := 1; s < sets && d.exact; s++ {
				a, b := values(traced[0], sp.name, d.name), values(traced[s], sp.name, d.name)
				if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
					problems = append(problems, fmt.Sprintf("%s/%s: count %v in set 0, %v in set %d", sp.name, d.name, a, b, s))
				}
			}
		}
	}
	for s := 1; s < sets; s++ {
		for i, r := range e2e[s] {
			if r.Inputs == "" || r.Inputs != e2e[0][i].Inputs {
				problems = append(problems, fmt.Sprintf("%s seed %d: inputs %q in set 0, %q in set %d", r.Workload, r.Seed, e2e[0][i].Inputs, r.Inputs, s))
			}
		}
	}
	if len(problems) > 0 {
		return errors.New("sets disagree:\n  " + strings.Join(problems, "\n  "))
	}
	fmt.Printf("%d sets of %d runs agree within every bound; exact counts and inputs identical\n", sets, runs)
	return nil
}

// verdict judges new against base for one metric, following sections
// 6 to 8 of the choosing-metrics guide: worse when the median is worse
// by more than the bound; better only when there are at least ten run
// pairs, new wins at least nine tenths of them and the medians differ by
// more than base's own interquartile spread; unresolved when either
// side's spread is wider than the bound and the runs overlap; otherwise
// same.
func verdict(d metricDef, base, new []float64) string {
	mb, mn := median(base), median(new)
	if worseBy(d, mb, mn) > d.bound {
		return "worse"
	}
	pairs := min(len(base), len(new))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch by := worseBy(d, base[i], new[i]); {
		case by < 0:
			wins++
		case by > 0:
			losses++
		}
	}
	q1, _, q3 := quartiles(base)
	if pairs >= 10 && wins > 0 && float64(wins) >= 0.9*float64(wins+losses) && math.Abs(mn-mb) > q3-q1 {
		return "better"
	}
	allBetter := true
	for _, b := range base {
		for _, n := range new {
			if worseBy(d, b, n) >= 0 {
				allBetter = false
			}
		}
	}
	if (spread(base) > d.bound || spread(new) > d.bound) && !allBetter {
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric of two
// run files and fails if any row is worse.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: -compare base.json new.json")
	}
	base, err := readRuns(args[0])
	if err != nil {
		return err
	}
	new, err := readRuns(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %14s %14s %-22s %6s  %s\n", "workload/metric", "base", "new", "ratio", "bound", "verdict")
	worse := 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			b, n := values(base, sp.name, d.name), values(new, sp.name, d.name)
			if len(b) == 0 || len(n) == 0 {
				return fmt.Errorf("%s/%s: %d base runs, %d new runs", sp.name, d.name, len(b), len(n))
			}
			mb, mn := median(b), median(n)
			v := verdict(d, b, n)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-34s %14.6g %14.6g %-22s %6g  %s\n", sp.name+"/"+d.name, mb, mn,
				fmt.Sprintf("%.4f of base %.4g", mn/mb, mb), d.bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than base by more than their bound", worse)
	}
	return nil
}

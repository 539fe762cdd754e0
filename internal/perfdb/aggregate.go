package perfdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Sample is the format-neutral unit the regression gate works on: one
// measured evaluation (or aggregated case) identified by expression,
// strategy, opt level and size, carrying a bag of count metrics
// (kernels, writes, allocs, ...). Counts only: they are exact on any
// host, and wall-clock comparison is benchmark/'s job. Samples come from
// perfdb JSONL snapshots or dfg-bench -repeat warm/cold JSON — LoadAny
// sniffs which.
type Sample struct {
	Name     string // expression text or fingerprint
	Strategy string
	Opt      string
	N        int
	Counts   map[string]int64
}

// Key groups samples for aggregation: identity plus a power-of-two
// size bucket so nearby grid sizes from different runs compare.
type Key struct {
	Name       string
	Strategy   string
	Opt        string
	SizeBucket int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s/n≤%d", k.Name, k.Strategy, orDash(k.Opt), k.SizeBucket)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// SizeBucket returns the smallest power of two >= n (0 for n <= 0),
// collapsing jittery element counts into comparable buckets.
func SizeBucket(n int) int {
	if n <= 0 {
		return 0
	}
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// Agg is the per-key aggregate: evaluation count and the mean of every
// count metric.
type Agg struct {
	Key     Key
	Samples int
	Counts  map[string]float64 // mean per sample
}

// Aggregate folds samples into per-key aggregates.
func Aggregate(samples []Sample) map[Key]*Agg {
	out := make(map[Key]*Agg)
	counts := make(map[Key]map[string]int64)
	for _, s := range samples {
		k := Key{Name: s.Name, Strategy: s.Strategy, Opt: s.Opt, SizeBucket: SizeBucket(s.N)}
		a := out[k]
		if a == nil {
			a = &Agg{Key: k}
			out[k] = a
			counts[k] = make(map[string]int64)
		}
		a.Samples++
		for name, v := range s.Counts {
			counts[k][name] += v
		}
	}
	for k, a := range out {
		a.Counts = make(map[string]float64, len(counts[k]))
		for name, sum := range counts[k] {
			a.Counts[name] = float64(sum) / float64(a.Samples)
		}
	}
	return out
}

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// CountTol is the absolute tolerance on count-metric means (default
	// 0, so a single extra warm-path allocation is flagged).
	CountTol float64
}

// Delta is one per-key, per-metric comparison outcome.
type Delta struct {
	Key    Key
	Metric string
	Base   float64
	New    float64
	// Regression marks a failure of the gate.
	Regression bool
}

func (d Delta) ratio() float64 {
	if d.Base == 0 {
		if d.New == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return d.New / d.Base
}

// Verdict is a full comparison of two aggregated snapshots.
type Verdict struct {
	Deltas []Delta
	// Missing keys exist only in base; Added only in new. Neither fails
	// the gate (sweeps legitimately change shape across PRs).
	Missing []Key
	Added   []Key
	// Compared counts (key, metric) pairs present on both sides.
	Compared int
}

// Regressions returns the failures.
func (v Verdict) Regressions() []Delta {
	var out []Delta
	for _, d := range v.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the gate passes (no regressions).
func (v Verdict) OK() bool { return len(v.Regressions()) == 0 }

// Compare judges new against base per key: every count metric both sides
// carry, against the absolute tolerance.
func Compare(base, new map[Key]*Agg, opts CompareOptions) Verdict {
	var v Verdict
	keys := make([]Key, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		b := base[k]
		n, ok := new[k]
		if !ok {
			v.Missing = append(v.Missing, k)
			continue
		}
		metrics := make([]string, 0, len(b.Counts))
		for name := range b.Counts {
			if _, ok := n.Counts[name]; ok {
				metrics = append(metrics, name)
			}
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			v.Compared++
			d := Delta{Key: k, Metric: name, Base: b.Counts[name], New: n.Counts[name]}
			if d.New > d.Base+opts.CountTol {
				d.Regression = true
			}
			v.Deltas = append(v.Deltas, d)
		}
	}
	for k := range new {
		if _, ok := base[k]; !ok {
			v.Added = append(v.Added, k)
		}
	}
	sortKeys(v.Added)
	return v
}

func sortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		if a.Opt != b.Opt {
			return a.Opt < b.Opt
		}
		return a.SizeBucket < b.SizeBucket
	})
}

// Markdown renders the verdict as a summary plus a table of every
// regression (and, verbose, every compared metric).
func (v Verdict) Markdown(verbose bool) string {
	var b strings.Builder
	regs := v.Regressions()
	fmt.Fprintf(&b, "## Perf comparison\n\n")
	fmt.Fprintf(&b, "%d metrics compared · **%d regressions** · %d keys missing · %d keys added\n\n",
		v.Compared, len(regs), len(v.Missing), len(v.Added))
	rows := v.Deltas
	if !verbose {
		rows = regs
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "| case | metric | base | new | ratio | verdict |\n")
		fmt.Fprintf(&b, "|---|---|---:|---:|---:|---|\n")
		for _, d := range rows {
			verdict := "ok"
			if d.Regression {
				verdict = "**REGRESSION**"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.2fx | %s |\n",
				d.Key, d.Metric, fmtMetric(d.Base), fmtMetric(d.New), d.ratio(), verdict)
		}
		b.WriteString("\n")
	}
	if len(v.Missing) > 0 {
		fmt.Fprintf(&b, "Missing from new run: ")
		for i, k := range v.Missing {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func fmtMetric(val float64) string {
	if val == math.Trunc(val) {
		return fmt.Sprintf("%.0f", val)
	}
	return fmt.Sprintf("%.2f", val)
}

// --- Format sniffing ---------------------------------------------------

// LoadAny loads samples from either persisted format:
//
//   - a perfdb JSONL snapshot (meta header with schema "dfg.perfdb/..."),
//   - dfg-bench -repeat warm/cold JSON ({"warm_evals": ..., "cases":
//     [{"cold_allocs": ...}]}).
//
// The foreign format is parsed through an anonymous struct here rather
// than by importing dfg/internal/metrics — perfdb sits below dfg in the
// dependency order.
func LoadAny(path string) ([]Sample, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, Meta{}, fmt.Errorf("perfdb: %s is empty", path)
	}
	// JSONL snapshots start with the meta line; anything else here is a
	// single indented JSON document.
	if first := firstLine(trimmed); bytes.Contains(first, []byte(`"dfg.perfdb`)) {
		meta, recs, err := Parse(data)
		if err != nil {
			return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
		}
		return recordSamples(recs), meta, nil
	}
	var doc struct {
		Meta      *Meta `json:"meta"`
		WarmEvals int   `json:"warm_evals"`
		Cases     []struct {
			Expr              string `json:"expr"`
			Strategy          string `json:"strategy"`
			Cells             int    `json:"cells"`
			ColdAllocs        *int64 `json:"cold_allocs"` // present on every warm/cold case
			WarmAllocs        int64  `json:"warm_allocs"`
			ColdWrites        int64  `json:"cold_device_writes"`
			WarmWrites        int64  `json:"warm_device_writes"`
			UploadsSkipped    int64  `json:"uploads_skipped"`
			ScratchWarmAllocs int64  `json:"scratch_warm_allocs"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(trimmed, &doc); err != nil {
		return nil, Meta{}, fmt.Errorf("%s: unrecognised perf format: %w", path, err)
	}
	var meta Meta
	if doc.Meta != nil {
		meta = *doc.Meta
	}
	var samples []Sample
	for _, c := range doc.Cases {
		if c.ColdAllocs == nil {
			continue
		}
		// The warm counters are the gate — a single fresh warm-path
		// allocation is a regression.
		samples = append(samples, Sample{
			Name: c.Expr, Strategy: c.Strategy, N: c.Cells,
			Counts: map[string]int64{
				"cold_allocs":         *c.ColdAllocs,
				"warm_allocs":         c.WarmAllocs,
				"cold_writes":         c.ColdWrites,
				"warm_writes":         c.WarmWrites,
				"scratch_warm_allocs": c.ScratchWarmAllocs,
			},
		})
	}
	if len(samples) == 0 {
		return nil, meta, fmt.Errorf("%s: no usable cases found", path)
	}
	return samples, meta, nil
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i]
	}
	return b
}

// recordSamples converts raw EvalRecords to comparison samples.
func recordSamples(recs []EvalRecord) []Sample {
	out := make([]Sample, 0, len(recs))
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		out = append(out, Sample{
			Name: r.Fingerprint, Strategy: r.Strategy, Opt: r.Opt, N: r.N,
			Counts: map[string]int64{
				"writes":  int64(r.Writes),
				"reads":   int64(r.Reads),
				"kernels": int64(r.Kernels),
				"allocs":  r.Allocs,
				"uploads": r.Uploads,
			},
		})
	}
	return out
}

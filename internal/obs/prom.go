package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WritePrometheus renders every family in the registry in the Prometheus
// text exposition format (version 0.0.4): a # HELP and # TYPE header per
// family, then one line per series, families sorted by name and series
// by label signature, so output is deterministic for a given state.
// Callback-backed series are evaluated at write time. Durations are
// exposed in seconds, per Prometheus convention. A nil registry writes
// nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	// Snapshot every family's series list while holding r.mu: lookup
	// appends to family.order and family.series when a new label set
	// appears (the engine creates eval-histogram series lazily per
	// fingerprint), so touching them after unlocking would race with live
	// traffic. The series copies carry only pointers to atomic state and
	// the immutable label signature, which are safe to render unlocked.
	type famSnapshot struct {
		name, help string
		kind       metricKind
		series     []series
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	sort.Strings(names)
	fams := make([]famSnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sigs := make([]string, len(f.order))
		copy(sigs, f.order)
		sort.Strings(sigs)
		snap := famSnapshot{name: f.name, help: f.help, kind: f.kind,
			series: make([]series, 0, len(sigs))}
		for _, sig := range sigs {
			snap.series = append(snap.series, *f.series[sig])
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		for i := range f.series {
			if err := writeSeries(w, f.name, f.kind, &f.series[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, name string, kind metricKind, s *series) error {
	switch kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.ctr.Value())
		return err
	case kindCounterFunc, kindGaugeFunc:
		v := 0.0
		if s.fn != nil {
			v = s.fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(v))
		return err
	case kindHistogram:
		return writeHistogram(w, name, s)
	}
	return nil
}

// writeHistogram renders the cumulative _bucket / _sum / _count triple
// for one histogram series, with "le" bounds in seconds.
func writeHistogram(w io.Writer, name string, s *series) error {
	cum, count, sumNS := s.hist.snapshotBuckets()
	for i, c := range cum {
		le := "+Inf"
		if i < histBuckets {
			le = formatFloat(float64(histBound(i)) / float64(time.Second))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, withLabel(s.labels, "le", le), c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, s.labels, formatFloat(float64(sumNS)/float64(time.Second))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, count)
	return err
}

// withLabel splices one more label into a rendered signature.
func withLabel(sig, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if sig == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(sig, "}") + "," + extra + "}"
}

// formatFloat renders a float compactly ("0.004096", "1", "12.5").
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	// %g may produce exponent notation for small bounds; Prometheus
	// accepts it, but fixed notation is easier on human readers for the
	// magnitudes we emit.
	if strings.ContainsAny(s, "eE") {
		s = strings.TrimRight(fmt.Sprintf("%.9f", v), "0")
		s = strings.TrimSuffix(s, ".")
	}
	return s
}

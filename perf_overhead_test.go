package dfg_test

import (
	"slices"
	"testing"
	"time"

	"dfg"
	"dfg/internal/perfdb"
)

// TestPerfRecorderOverheadWarmVM guards the continuous-profiling budget:
// attaching the recorder to a warm host-VM evaluation path — the
// fastest, most overhead-sensitive path the engine has — must cost less
// than 5% plus an absolute noise floor. Recorded and unrecorded
// evaluations alternate one by one in a single loop, so both see the same
// host phases, and each side is read at its 5th percentile: what an
// evaluation costs when nothing preempts it (the method behind the
// benchmark's trace.overhead_share). A shared host can still skew one
// whole measurement, so it is taken up to three times and the test
// fails only if every attempt exceeds the limit.
func TestPerfRecorderOverheadWarmVM(t *testing.T) {
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "vm"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Prepare("r = x*y + 2.0*x + y")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	const n = 4096
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i%37) * 0.5
		ys[i] = float32(i%23) - 11
	}
	inputs := map[string][]float32{"x": xs, "y": ys}

	eval := func() time.Duration {
		start := time.Now()
		if _, err := pr.Eval(n, inputs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm the path (plan cached, arena populated, VM bytecode hot).
	for i := 0; i < 200; i++ {
		eval()
	}

	const pairs = 2000
	p05 := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/20]
	}
	for attempt := 1; ; attempt++ {
		rec := perfdb.NewRecorder(0)
		plain, recorded := make([]time.Duration, pairs), make([]time.Duration, pairs)
		for i := 0; i < pairs; i++ {
			eng.SetPerfRecorder(nil)
			plain[i] = eval()
			eng.SetPerfRecorder(rec)
			recorded[i] = eval()
		}
		if rec.Recorded() != pairs {
			t.Fatalf("recorder saw %d evaluations, want %d", rec.Recorded(), pairs)
		}
		base, with := p05(plain), p05(recorded)
		// 5% relative budget plus 1.25µs per evaluation, so a sub-noise
		// baseline can't produce false alarms.
		limit := base + base/20 + 1250*time.Nanosecond
		t.Logf("attempt %d: warm VM eval p05: base=%v recorded=%v limit=%v (%.1f%% overhead)",
			attempt, base, with, limit, 100*float64(with-base)/float64(base))
		if with <= limit {
			return
		}
		if attempt == 3 {
			t.Fatalf("recorder overhead too high in all 3 attempts: base=%v recorded=%v limit=%v", base, with, limit)
		}
	}
}

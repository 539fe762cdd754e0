package metrics

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunRepeatWarmPath is the warm-vs-cold count gate: for every
// strategy, warm prepared evaluations must allocate zero fresh device
// buffers, reproduce the cold output bitwise, and (for the
// resident-source strategies) skip re-uploads of the mesh-derived
// sources while charging every field its write; and
// the whole table must equal testdata/repeat.golden byte for byte, so
// any count that moves — one extra cold allocation or upload included —
// fails. Regenerate with
// `go test ./internal/metrics -run TestRunRepeatWarmPath -update`;
// `dfg-bench -repeat 3` prints the same table.
func TestRunRepeatWarmPath(t *testing.T) {
	cases, err := RunRepeat(3)
	if err != nil {
		t.Fatal(err)
	}
	got := RepeatTable(cases).Text()
	path := filepath.Join("testdata", "repeat.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("warm/cold counts drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
	if want := len(RepeatNames()); len(cases) != want {
		t.Fatalf("want %d cases, got %d", want, len(cases))
	}
	for _, c := range cases {
		t.Logf("%-10s cold_allocs=%d warm_allocs=%d cold_writes=%d warm_writes=%d reused=%d skipped=%d scratch_cold=%d scratch_warm=%d identical=%v",
			c.Strategy, c.ColdAllocs, c.WarmAllocs, c.ColdWrites, c.WarmWrites, c.Reused, c.UploadsSkipped,
			c.ScratchColdAllocs, c.ScratchWarmAllocs, c.Identical)
		if !c.Reduced() {
			t.Errorf("%s: warm path did not beat cold (allocs cold=%d warm=%d scratch cold=%d warm=%d identical=%v)",
				c.Strategy, c.ColdAllocs, c.WarmAllocs, c.ScratchColdAllocs, c.ScratchWarmAllocs, c.Identical)
		}
		if c.Strategy == "vm" {
			// The host VM touches no device memory in any phase; its warm
			// gate is the scratch pool, already folded into Reduced above.
			if c.ColdWrites != 0 || c.WarmWrites != 0 {
				t.Errorf("vm: recorded device transfers (cold=%d warm=%d), want 0", c.ColdWrites, c.WarmWrites)
			}
			continue
		}
		if c.Strategy != "roundtrip" {
			// staged, fusion and streaming bind sources to resident
			// slots: every cold bind recurs in each warm eval, a field
			// (u, v, w) charged its write and a mesh-derived source
			// (dims, x, y, z) skipped.
			if binds := c.WarmWrites + int(c.UploadsSkipped); binds != 3*c.ColdWrites || 4*c.WarmWrites != 3*int(c.UploadsSkipped) {
				t.Errorf("%s: warm evals recorded %d uploads and %d skips, want 3/7 and 4/7 of 3 x %d", c.Strategy, c.WarmWrites, c.UploadsSkipped, c.ColdWrites)
			}
		}
	}
	// The batch-of-one case must be indistinguishable from plain fusion —
	// the one-text path means preparing an expression twice in one handle
	// costs exactly what preparing it once does.
	byName := map[string]RepeatCase{}
	for _, c := range cases {
		byName[c.Strategy] = c
	}
	fusion, batch1 := byName["fusion"], byName[BatchOfOneName]
	if fusion.ColdAllocs != batch1.ColdAllocs || fusion.WarmAllocs != batch1.WarmAllocs ||
		fusion.ColdWrites != batch1.ColdWrites || fusion.WarmWrites != batch1.WarmWrites {
		t.Errorf("batch-of-one diverges from fusion: fusion %+v vs batch1 %+v", fusion, batch1)
	}
}

package metrics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfg/internal/ocl"
)

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Title", "A", "BBB")
	tb.Add("x", "1")
	tb.Add("longer", "2")
	txt := tb.Text()
	if !strings.HasPrefix(txt, "Title\n") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), txt)
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "BBB") {
		t.Fatal("header missing columns")
	}
	// Columns align: every data line has the same prefix width.
	if len(lines[3]) < len("longer") {
		t.Fatal("column alignment broken")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("x,y", `has "quote"`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"has \"\"quote\"\"\"\n"
	if csv != want {
		t.Fatalf("csv:\n%q\nwant\n%q", csv, want)
	}
}

func TestTableAddf(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Addf("%d|%s", 7, "x")
	if tb.Rows[0][0] != "7" || tb.Rows[0][1] != "x" {
		t.Fatalf("Addf row: %v", tb.Rows[0])
	}
}

func TestFig2SchematicMatchesPaper(t *testing.T) {
	// The paper's Figure 2: roundtrip 3, staged 4, fusion 5.
	want := map[string]int{"roundtrip": 3, "staged": 4, "fusion": 5}
	for s, w := range want {
		got, err := SchematicMemory(Fig2Network(), s)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Figure 2 %s = %d arrays, paper says %d", s, got, w)
		}
	}
	tbl, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	txt := tbl.Text()
	for _, frag := range []string{"roundtrip", "3", "4", "5"} {
		if !strings.Contains(txt, frag) {
			t.Errorf("Fig2 table missing %q:\n%s", frag, txt)
		}
	}
}

func TestSchematicMemoryVelMagShape(t *testing.T) {
	// Velocity magnitude as a schematic: roundtrip 3, staged 4, fusion 4
	// — matching the measured peaks in the strategy tests.
	nodes := []SchemNode{
		{ID: "u"}, {ID: "v"}, {ID: "w"},
		{ID: "uu", Inputs: []string{"u", "u"}},
		{ID: "vv", Inputs: []string{"v", "v"}},
		{ID: "ww", Inputs: []string{"w", "w"}},
		{ID: "s1", Inputs: []string{"uu", "vv"}},
		{ID: "s2", Inputs: []string{"s1", "ww"}},
		{ID: "out", Inputs: []string{"s2"}},
	}
	want := map[string]int{"roundtrip": 3, "staged": 4, "fusion": 4}
	for s, w := range want {
		got, err := SchematicMemory(nodes, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("velmag schematic %s = %d, want %d", s, got, w)
		}
	}
}

func TestSchematicMemoryErrors(t *testing.T) {
	if _, err := SchematicMemory(nil, "fusion"); err == nil {
		t.Error("empty network must fail")
	}
	if _, err := SchematicMemory(Fig2Network(), "warp"); err == nil {
		t.Error("unknown strategy must fail")
	}
	bad := []SchemNode{{ID: "a", Inputs: []string{"missing"}}}
	if _, err := SchematicMemory(bad, "fusion"); err == nil {
		t.Error("dangling input must fail")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	tbl := TableI(1)
	if len(tbl.Rows) != 12 {
		t.Fatalf("Table I has 12 rows, got %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "192 x 192 x 0256" || tbl.Rows[0][1] != "9,437,184" {
		t.Fatalf("row 1: %v", tbl.Rows[0])
	}
	if tbl.Rows[11][1] != "113,246,208" {
		t.Fatalf("row 12 cells: %v", tbl.Rows[11])
	}
}

func TestTableIIMatchesPaperExactly(t *testing.T) {
	tbl, err := TableIIAt("")
	if err != nil {
		t.Fatal(err)
	}
	paper := paperTableII()
	if len(tbl.Rows) != 9 {
		t.Fatalf("Table II has 9 rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		want := paper[row[0]][row[1]]
		for i := 0; i < 3; i++ {
			got, _ := strconv.Atoi(row[2+i])
			if got != want[i] {
				t.Errorf("%s/%s column %d: got %d want %d", row[0], row[1], i, got, want[i])
			}
		}
	}
}

func TestGroupDigits(t *testing.T) {
	cases := map[int]string{0: "0", 12: "12", 1234: "1,234", 113246208: "113,246,208"}
	for in, want := range cases {
		if got := groupDigits(in); got != want {
			t.Errorf("groupDigits(%d) = %q want %q", in, got, want)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtBytes(3<<30) != "3.00 GiB" || fmtBytes(48<<20) != "48.00 MiB" || fmtBytes(100) != "100 B" {
		t.Fatal("fmtBytes wrong")
	}
	if !strings.HasSuffix(fmtDuration(1500000000), "s") {
		t.Fatal("fmtDuration seconds wrong")
	}
}

// TestRunCasesSmallSweep runs a reduced sweep (3 grids at 1/16 scale)
// and checks the headline shapes of Figures 5 and 6.
func TestRunCasesSmallSweep(t *testing.T) {
	results, err := RunCases(Config{LinScale: 16, MaxGrids: 3, Repeats: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 grids x 3 expressions x 2 devices x 4 executors.
	if len(results) != 72 {
		t.Fatalf("want 72 cases, got %d", len(results))
	}

	byKey := map[string]CaseResult{}
	for _, r := range results {
		byKey[r.Key()] = r
	}
	for _, r := range results {
		if r.Device == ocl.CPUDevice && r.Failed {
			t.Fatalf("CPU case failed: %s (%s)", r.Key(), r.Reason)
		}
		if r.Failed {
			continue
		}
		if r.DevTime <= 0 || r.PeakMem <= 0 {
			t.Fatalf("case %s has empty measurements", r.Key())
		}
	}
	// Strategy runtime ordering on the largest CPU grid for Q-Crit.
	big := results[len(results)-1].Grid
	get := func(exec string, dev ocl.DeviceType) CaseResult {
		r, ok := byKey["Q-Crit/"+exec+"/"+dev.String()+"/"+big.Dims.String()]
		if !ok {
			t.Fatalf("missing case %s", exec)
		}
		return r
	}
	fu, st, rt := get("fusion", ocl.CPUDevice), get("staged", ocl.CPUDevice), get("roundtrip", ocl.CPUDevice)
	if !(fu.DevTime < st.DevTime && st.DevTime < rt.DevTime) {
		t.Fatalf("runtime ordering wrong: fusion=%v staged=%v roundtrip=%v", fu.DevTime, st.DevTime, rt.DevTime)
	}
	if !(st.PeakMem > rt.PeakMem && rt.PeakMem > fu.PeakMem) {
		t.Fatalf("memory ordering wrong: staged=%d roundtrip=%d fusion=%d", st.PeakMem, rt.PeakMem, fu.PeakMem)
	}
	// GPU at least as fast as CPU where it ran.
	gfu := get("fusion", ocl.GPUDevice)
	if !gfu.Failed && gfu.DevTime > fu.DevTime {
		t.Fatalf("GPU fusion (%v) slower than CPU fusion (%v)", gfu.DevTime, fu.DevTime)
	}

	// Tables render every case.
	if rows := len(Fig5Table(results).Rows); rows != 72 {
		t.Fatalf("Fig5 rows %d", rows)
	}
	if rows := len(Fig6Table(results).Rows); rows != 72 {
		t.Fatalf("Fig6 rows %d", rows)
	}
	sum := Summary(results)
	if !strings.Contains(sum, "GPU completed") {
		t.Fatalf("summary missing completion stats:\n%s", sum)
	}
	if strings.Contains(sum, "VIOLATED") {
		t.Fatalf("a paper claim is violated on the small sweep:\n%s", sum)
	}
}

func TestTrimmedMean(t *testing.T) {
	if trimmedMean(nil) != 0 {
		t.Fatal("empty mean")
	}
	// 100, 1, 3, 2, 4 -> sorted 1..100, drop 1 and 100 -> mean(2,3,4) = 3.
	got := trimmedMean([]time.Duration{100, 1, 3, 2, 4})
	if got != 3 {
		t.Fatalf("trimmed mean = %v, want 3", got)
	}
	// Fewer than three measurements: plain mean.
	if trimmedMean([]time.Duration{2, 4}) != 3 {
		t.Fatal("short mean wrong")
	}
}

func TestWriteTrace(t *testing.T) {
	env := ocl.NewEnv(ocl.NewDevice(ocl.TeslaM2050Spec(64)))
	b, err := env.Upload("u", make([]float32, 256), 1)
	if err != nil {
		t.Fatal(err)
	}
	env.Download(b)

	var buf strings.Builder
	if err := WriteTrace(&buf, "NVIDIA Tesla M2050", env.Queue().Events()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("want 2 trace events, got %d", len(events))
	}
	if events[0]["cat"] != "host-to-device" || events[1]["cat"] != "device-to-host" {
		t.Fatalf("trace categories wrong: %v", events)
	}
	if events[0]["ph"] != "X" {
		t.Fatal("trace events must be complete ('X') events")
	}
	// The second event starts after the first ends (in-order queue).
	ts0, _ := events[0]["ts"].(float64)
	dur0, _ := events[0]["dur"].(float64)
	ts1, _ := events[1]["ts"].(float64)
	if ts1 < ts0+dur0 {
		t.Fatal("trace timeline must be in order")
	}
}

func TestSpeedupTable(t *testing.T) {
	results, err := RunCases(Config{LinScale: 16, MaxGrids: 2, Repeats: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := SpeedupTable(results)
	// 2 grids x 3 expressions x 2 devices with fusion completing = 12 rows.
	if len(tbl.Rows) != 12 {
		t.Fatalf("want 12 rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[3:] {
			if cell == "-" {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
				t.Fatalf("bad ratio cell %q", cell)
			}
			if v < 0.5 {
				t.Fatalf("fusion should not be slower than half of anything: %q in %v", cell, row)
			}
		}
	}
	c, f := gpuCompletion(results)
	if c+f != 24 {
		t.Fatalf("GPU cases %d + %d != 24", c, f)
	}
}

// paperTableII returns the published Table II values, keyed by
// expression then strategy, for verification against TableIIAt("").
func paperTableII() map[string]map[string][3]int {
	return map[string]map[string][3]int{
		"VelMag":  {"roundtrip": {11, 6, 6}, "staged": {3, 1, 6}, "fusion": {3, 1, 1}},
		"VortMag": {"roundtrip": {32, 12, 12}, "staged": {7, 1, 18}, "fusion": {7, 1, 1}},
		"Q-Crit":  {"roundtrip": {123, 57, 57}, "staged": {7, 1, 67}, "fusion": {7, 1, 1}},
	}
}

// gpuCompletion summarizes the sweep's GPU completion statistics (the
// paper's "106 of 144" sentence).
func gpuCompletion(results []CaseResult) (completed, failed int) {
	for _, r := range results {
		if r.Device != ocl.GPUDevice {
			continue
		}
		if r.Failed {
			failed++
		} else {
			completed++
		}
	}
	return
}

package metrics

import "fmt"

// SpeedupTable derives the headline ratios of the runtime study from a
// sweep's results: per (expression, device, grid), the speedup of fusion
// over roundtrip and over staged, and fusion's overhead relative to the
// hand-written reference kernel. These are the numbers the paper's §V-D
// discussion talks through.
func SpeedupTable(results []CaseResult) *Table {
	byKey := make(map[string]CaseResult, len(results))
	for _, r := range results {
		byKey[r.Key()] = r
	}
	t := NewTable("Figure 5 (derived): fusion speedups",
		"Expression", "Grid", "Device", "vs roundtrip", "vs staged", "vs reference")
	seen := map[string]bool{}
	for _, r := range results {
		base := fmt.Sprintf("%s/%v/%s", r.Expr, r.Device, r.Grid.Dims)
		if seen[base] {
			continue
		}
		seen[base] = true
		get := func(exec string) (CaseResult, bool) {
			c, ok := byKey[fmt.Sprintf("%s/%s/%v/%s", r.Expr, exec, r.Device, r.Grid.Dims)]
			return c, ok && !c.Failed
		}
		fu, okF := get("fusion")
		if !okF {
			continue
		}
		ratio := func(exec string) string {
			c, ok := get(exec)
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(c.DevTime)/float64(fu.DevTime))
		}
		t.Add(r.Expr, r.Grid.Dims.String(), r.Device.String(),
			ratio("roundtrip"), ratio("staged"), ratio("reference"))
	}
	return t
}

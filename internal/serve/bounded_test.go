package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPerTextStatePlateaus streams 15 000 distinct texts through a
// pool: every structure that grows with the texts a pool has seen is
// bounded (Config's doc lists them), so the last 5 000 texts add under
// 5 % to the /metrics exposition's line count and to the live heap
// after GC. Without the dfg_eval_seconds cap each text adds one 30-line
// series.
func TestPerTextStatePlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 15 000 texts")
	}
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 64
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(i)
	}
	stream := func(from, to int) {
		for i := from; i < to; i++ {
			req := Request{Expr: fmt.Sprintf("r = u * %d + u", i), N: n, Inputs: map[string][]float32{"u": u}}
			if _, err := p.Submit(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func() (lines int, heap uint64) {
		rec := httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return strings.Count(rec.Body.String(), "\n"), ms.HeapAlloc
	}
	// 10 000 texts fill every bound, the largest being the perf
	// recorder's ring of 16 × 512 records.
	stream(0, 10000)
	lines, heap := measure()
	stream(10000, 15000)
	lines2, heap2 := measure()
	t.Logf("after 10 000 texts: %d /metrics lines, %d B live heap; after 15 000: %d lines, %d B", lines, heap, lines2, heap2)
	if lines2*100 >= lines*105 {
		t.Errorf("the last 5 000 texts took /metrics from %d to %d lines: a per-text structure is unbounded", lines, lines2)
	}
	if heap2*100 >= heap*105 {
		t.Errorf("the last 5 000 texts took the live heap from %d to %d B: a per-text structure is unbounded", heap, heap2)
	}
}

package par

import (
	"math"
	"strings"
	"testing"

	"dfg"
	"dfg/internal/mesh"
)

// TestDistributedQCriterionSeamFree is the Figure 7 property: the
// Q-criterion assembled from ghost-grown blocks processed by many ranks
// equals the single-grid computation bit for bit everywhere — including
// sub-grid boundaries, which are only correct because of the ghost
// exchange — on an even split and on one where no axis divides evenly.
func TestDistributedQCriterionSeamFree(t *testing.T) {
	for _, cfg := range []Config{
		{Domain: mesh.Dims{NX: 24, NY: 18, NZ: 12}, Parts: [3]int{3, 3, 2}},
		{Domain: mesh.Dims{NX: 13, NY: 11, NZ: 7}, Parts: [3]int{3, 2, 2}},
	} {
		cfg.Ranks, cfg.GPUsPerNode, cfg.Seed, cfg.MemScale = 4, 2, 9, 64
		assertBitExact(t, cfg)
	}
}

// Stencil chains of depth 2 and 3: a gradient of a gradient reads its
// input's neighbours, so a block needs one ghost layer per level.
const (
	depth2 = "g = grad3d(u, dims, x, y, z)\nh = grad3d(g[2], dims, x, y, z)\nr = h[2]"
	depth3 = "g = grad3d(u, dims, x, y, z)\nh = grad3d(g[2] * v, dims, x, y, z)\nk = grad3d(h[0] + w, dims, x, y, z)\nr = k[2] - k[1]"
)

// TestNestedStencilsSeamFree: the ghost width comes from the network,
// so stencil chains deeper than one are bit-equal to the single-grid
// golden on the uneven split, with fused and with streamed blocks.
func TestNestedStencilsSeamFree(t *testing.T) {
	for _, strat := range []string{"fusion", "streaming"} {
		for _, text := range []string{depth2, depth3} {
			assertBitExact(t, Config{
				Domain: mesh.Dims{NX: 13, NY: 11, NZ: 7}, Parts: [3]int{3, 2, 2},
				Ranks: 3, Expression: text, Strategy: strat, Seed: 5, MemScale: 64,
			})
		}
	}
}

// assertBitExact runs cfg distributed and compares every cell with the
// single-grid golden: equal bits, or NaN on both sides.
func assertBitExact(t *testing.T, cfg Config) {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden, _, err := GoldenField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Output) != len(golden) {
		t.Fatalf("output size %d != %d", len(rep.Output), len(golden))
	}
	for i, g := range golden {
		if !sameClass(rep.Output[i], g) {
			x, y, z := cfg.Domain.Coords(i)
			t.Fatalf("strategy %q, %v into %v: seam at cell (%d,%d,%d): distributed %v vs golden %v",
				cfg.Strategy, cfg.Domain, cfg.Parts, x, y, z, rep.Output[i], g)
		}
	}
}

// sameClass reports equal bits, or NaN on both sides.
func sameClass(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestGhostExchangeIsRequired double-checks the tests above are
// meaningful: with one ghost layer fewer than the stencil depth,
// block-boundary stencils are wrong and the assembled field disagrees
// with the golden one.
func TestGhostExchangeIsRequired(t *testing.T) {
	for _, c := range []struct {
		text  string
		parts [3]int
	}{
		{dfg.QCriterionExpr, [3]int{2, 2, 1}},
		{depth2, [3]int{2, 2, 2}}, // h[2] differentiates along Z twice: split Z
	} {
		cfg := Config{
			Domain:     mesh.Dims{NX: 16, NY: 16, NZ: 8},
			Parts:      c.parts,
			Ranks:      2,
			Expression: c.text,
			Seed:       9,
			MemScale:   64,
			ghostShort: 1,
		}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		golden, _, err := GoldenField(cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffs := 0
		for i := range golden {
			if !sameClass(rep.Output[i], golden[i]) {
				diffs++
			}
		}
		if diffs == 0 {
			t.Fatalf("one ghost layer short should corrupt block boundaries of %q; the seam tests would be vacuous", c.text)
		}
	}
}

// TestPaperRunStructure reproduces the structure of the paper's
// distributed run at reduced cell counts: 3072 sub-grids (16 x 16 x 12
// layout), 256 MPI tasks on 128 nodes with 2 GPUs each, 12 blocks per
// GPU.
func TestPaperRunStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("structure test spawns 256 engines")
	}
	cfg := Config{
		Domain:      mesh.Dims{NX: 32, NY: 32, NZ: 24},
		Parts:       [3]int{16, 16, 12},
		Ranks:       256,
		GPUsPerNode: 2,
		Seed:        1,
		MemScale:    1 << 20,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 3072 {
		t.Fatalf("want 3072 blocks, got %d", rep.Blocks)
	}
	if len(rep.Ranks) != 256 {
		t.Fatalf("want 256 ranks, got %d", len(rep.Ranks))
	}
	maxNode := 0
	for _, r := range rep.Ranks {
		if r.Blocks != 12 {
			t.Fatalf("rank %d processed %d blocks, want 12 (3072/256)", r.Rank, r.Blocks)
		}
		if r.Node > maxNode {
			maxNode = r.Node
		}
		// Fusion on each block: 7 uploads, 1 kernel, 1 read per block.
		if r.Profile.Kernels != 12 {
			t.Fatalf("rank %d kernel count %d, want 12 (one fused kernel per block)", r.Rank, r.Profile.Kernels)
		}
	}
	if maxNode != 127 {
		t.Fatalf("want 128 nodes (0..127), got max node %d", maxNode)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Domain: mesh.Dims{NX: 8, NY: 8, NZ: 8}, Parts: [3]int{2, 2, 2}, Ranks: 0}); err == nil {
		t.Fatal("zero ranks must fail")
	}
	if _, err := Run(Config{Domain: mesh.Dims{NX: 8, NY: 8, NZ: 8}, Parts: [3]int{99, 1, 1}, Ranks: 1}); err == nil {
		t.Fatal("bad decomposition must fail")
	}
	// Expression errors surface.
	if _, err := Run(Config{
		Domain: mesh.Dims{NX: 8, NY: 8, NZ: 8}, Parts: [3]int{2, 2, 2},
		Ranks: 2, Expression: "a = nosuch(u)", Seed: 1,
	}); err == nil {
		t.Fatal("bad expression must fail")
	}
}

func TestRanksOutnumberBlocks(t *testing.T) {
	// More ranks than blocks: the extra ranks simply process nothing.
	cfg := Config{
		Domain: mesh.Dims{NX: 8, NY: 8, NZ: 8},
		Parts:  [3]int{2, 1, 1},
		Ranks:  5,
		Seed:   2,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rep.Ranks {
		total += r.Blocks
	}
	if total != 2 {
		t.Fatalf("blocks processed %d, want 2", total)
	}
}

func TestVelocityMagnitudeDistributed(t *testing.T) {
	// An expression without gradients has stencil depth 0: its blocks
	// carry no ghost layers.
	cfg := Config{
		Domain:     mesh.Dims{NX: 12, NY: 12, NZ: 6},
		Parts:      [3]int{2, 2, 1},
		Ranks:      3,
		Expression: dfg.VelocityMagnitudeExpr,
		Seed:       4,
	}
	assertBitExact(t, cfg)
}

func TestDistributedWithStreamingBlocks(t *testing.T) {
	// The distributed runner composes with the future-work streaming
	// strategy: each rank streams its blocks tile by tile, and the
	// assembled result still equals the single-grid computation.
	for _, cfg := range []Config{
		{Domain: mesh.Dims{NX: 16, NY: 12, NZ: 12}, Parts: [3]int{2, 2, 2}},
		{Domain: mesh.Dims{NX: 13, NY: 11, NZ: 7}, Parts: [3]int{3, 2, 2}},
	} {
		cfg.Ranks, cfg.Strategy, cfg.Seed, cfg.MemScale = 3, "streaming", 6, 64
		assertBitExact(t, cfg)
	}
}

func TestReportTableAndImbalance(t *testing.T) {
	cfg := Config{
		Domain: mesh.Dims{NX: 12, NY: 12, NZ: 8},
		Parts:  [3]int{2, 2, 2},
		Ranks:  4,
		Seed:   2,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 rank rows, got %d", len(tbl.Rows))
	}
	txt := tbl.Text()
	for _, frag := range []string{"Rank", "Blocks", "Device Time", "NVIDIA Tesla M2050"} {
		if !strings.Contains(txt, frag) {
			t.Errorf("rank table missing %q", frag)
		}
	}
	// Equal blocks per rank: imbalance near 1.
	if im := rep.Imbalance(); im < 1 || im > 1.05 {
		t.Fatalf("round-robin equal blocks should balance: imbalance %v", im)
	}
	// Empty report: defined behaviour.
	if (&Report{}).Imbalance() != 1 {
		t.Fatal("empty report imbalance should be 1")
	}
}

// Package counttest holds the count oracle the strategy tests hold every
// execution strategy's device traffic to. Only tests import it.
//
// The paper states its accounting as rules — Table II's caption and
// Section III-C, with Figure 2's memory sums done by hand — and Count
// writes those rules over a sealed network, sharing nothing with the
// strategies, the lowering or the simulated device: it imports only the
// network. That independence is what lets it check an Execute rewrite,
// where a count derived from the plan would agree with any schedule.
package counttest

import (
	"fmt"
	"strconv"
	"strings"

	"dfg/internal/dataflow"
)

// Counts is what one cold one-shot run moves and launches: Table II's
// Dev-W, Dev-R and K-Exe, the bytes each way, and the device memory
// high-water mark in bytes.
type Counts struct {
	Writes, Reads, Kernels int
	WriteBytes, ReadBytes  int64
	Peak                   int64
}

// Count applies the named strategy's rules ("roundtrip", "staged",
// "fusion" or "streaming@<tiles>") to a run of net over n cells. src
// gives each bound source's array: an upload moves the whole array (the
// dims descriptor is four floats, not n), and streaming reads the mesh
// it tiles from a stencil's dims.
//
//   - roundtrip: one kernel per computed node except const and
//     decompose, which run on the host. Each kernel uploads every buffer
//     argument, duplicates included (u*u uploads u twice); a constant is
//     a host-filled array of n floats uploaded at each use. One read per
//     kernel. The peak is the largest kernel's working set.
//   - staged: one write per live source, one kernel per computed node
//     (constants as fill kernels, decomposes as kernels), one read per
//     root. A buffer is freed when its last consumer has run, a root's
//     after its download; the peak is that refcount's high-water mark in
//     topological order.
//   - fusion: one write per live source, one kernel, one read per root
//     (n elements each). The peak holds every source, every output and
//     one scratch array per value a later pass reads (Figure 2: a
//     stencil whose field is not a source runs one pass after it).
//   - streaming@p: fusion once per tile. The mesh a stencil's dims
//     describe (1 x 1 x n when no stencil reads one) is cut into
//     min(p, NZ) Z slabs at NZ·t/p, each grown on both Z faces by the
//     network's stencil depth — the largest sum of stencil radii on
//     any path from a source to a root — and clipped at the domain. A
//     tile writes each live source: a source only a stencil's dims read
//     as the tile's own four-float descriptor, any other as the window
//     of the tile's cells. The peak is the largest tile's.
func Count(strategy string, net *dataflow.Network, n int, src func(name string) []float32) (Counts, error) {
	order, err := net.TopoOrder()
	if err != nil {
		return Counts{}, err
	}
	nodes := net.Nodes()
	// size is the bytes of a node's array: a source's bound array, whole
	// elements only; an n-element array of the node's width otherwise.
	size := func(p int32) int64 {
		nd := nodes[p]
		if nd.Filter == "source" {
			return int64(len(src(nd.ID)) / nd.Width * nd.Width * 4)
		}
		return int64(n * nd.Width * 4)
	}
	var c Counts
	switch strategy {
	case "roundtrip":
		for _, nd := range order {
			switch nd.Filter {
			case "source", "const", "decompose":
				continue
			}
			work := size(nd.Pos())
			for _, in := range nd.Inputs {
				c.Writes++
				c.WriteBytes += size(in)
				work += size(in)
			}
			c.Kernels++
			c.Reads++
			c.ReadBytes += size(nd.Pos())
			c.Peak = max(c.Peak, work)
		}
	case "staged":
		refs := make([]int, len(nodes))
		for _, nd := range order {
			for _, in := range nd.Inputs {
				refs[in]++
			}
		}
		var live int64
		for _, nd := range order {
			if nd.Filter == "source" {
				c.Writes++
				c.WriteBytes += size(nd.Pos())
				live += size(nd.Pos())
			}
		}
		for _, r := range net.Roots() {
			refs[r]++
		}
		c.Peak = live
		for _, nd := range order {
			if nd.Filter == "source" {
				continue
			}
			c.Kernels++
			live += size(nd.Pos())
			c.Peak = max(c.Peak, live)
			for _, in := range nd.Inputs {
				if refs[in]--; refs[in] == 0 {
					live -= size(in)
				}
			}
		}
		for _, r := range net.Roots() {
			c.Reads++
			c.ReadBytes += size(r)
		}
	case "fusion":
		c = fused(order, nodes, net.Roots(), n, size)
	default:
		tiles, err := strconv.Atoi(strings.TrimPrefix(strategy, "streaming@"))
		if !strings.HasPrefix(strategy, "streaming@") || err != nil || tiles < 1 {
			return Counts{}, fmt.Errorf("counttest: no accounting rules for strategy %q", strategy)
		}
		c = streamed(order, nodes, net.Roots(), n, tiles, src)
	}
	return c, nil
}

// fused counts one fused kernel over cells: one write per live source
// (source gives its bytes), one read per root, and a peak of every
// source, output and scratch array.
func fused(order, nodes []*dataflow.Node, roots []int32, cells int, source func(p int32) int64) Counts {
	size := func(p int32) int64 {
		if nodes[p].Filter == "source" {
			return source(p)
		}
		return int64(cells * nodes[p].Width * 4)
	}
	c := Counts{Kernels: 1}
	for _, nd := range order {
		if nd.Filter == "source" {
			c.Writes++
			c.WriteBytes += size(nd.Pos())
		}
	}
	for _, r := range roots {
		c.Reads++
		c.ReadBytes += int64(cells * nodes[r].Width * 4)
	}
	c.Peak = c.WriteBytes + c.ReadBytes
	for _, p := range scratch(order, nodes, roots) {
		c.Peak += size(p)
	}
	return c
}

// streamed counts streaming's tiles, each a fused run over the tile's
// cells.
func streamed(order, nodes []*dataflow.Node, roots []int32, n, tiles int, src func(name string) []float32) Counts {
	plane, nz := 1, n
	depth := make(map[int32]int, len(order))
	perElem := make(map[int32]bool)
	deepest := 0
	for _, nd := range order {
		stencil := nd.Info().Class == dataflow.ClassStencil
		d := 0
		for i, in := range nd.Inputs {
			d = max(d, depth[in])
			if stencil && i == 1 {
				dims := src(nodes[in].ID)
				plane, nz = int(dims[0])*int(dims[1]), int(dims[2])
			} else {
				perElem[in] = true
			}
		}
		depth[nd.Pos()] = d + nd.Info().Radius
		deepest = max(deepest, depth[nd.Pos()])
	}
	for _, r := range roots {
		perElem[r] = true
	}
	var c Counts
	tiles = min(tiles, nz)
	for t := 0; t < tiles; t++ {
		lo := max(nz*t/tiles-deepest, 0)
		hi := min(nz*(t+1)/tiles+deepest, nz)
		cells := (hi - lo) * plane
		tile := fused(order, nodes, roots, cells, func(p int32) int64 {
			if !perElem[p] {
				return 16
			}
			return int64(cells * nodes[p].Width * 4)
		})
		c.Writes += tile.Writes
		c.Reads += tile.Reads
		c.Kernels += tile.Kernels
		c.WriteBytes += tile.WriteBytes
		c.ReadBytes += tile.ReadBytes
		c.Peak = max(c.Peak, tile.Peak)
	}
	return c
}

// scratch lists the values fusion materializes (Figure 2): a stencil
// runs one pass after a field it does not read from a source, and every
// computed value read in a later pass than its own — a root computed
// before the last pass included, and a stencil's constant field — lives
// in a problem-sized scratch array.
func scratch(order, nodes []*dataflow.Node, roots []int32) []int32 {
	pass := make(map[int32]int, len(order))
	mat := make(map[int32]bool)
	last := 0
	for _, nd := range order {
		p := 0
		for _, in := range nd.Inputs {
			p = max(p, pass[in])
		}
		if nd.Info().Class == dataflow.ClassStencil && nodes[nd.Inputs[0]].Filter != "source" {
			mat[nd.Inputs[0]] = true
			p = max(p, pass[nd.Inputs[0]]+1)
		}
		pass[nd.Pos()] = p
	}
	for _, r := range roots {
		last = max(last, pass[r])
	}
	computed := func(p int32) bool { return nodes[p].Filter != "source" && nodes[p].Filter != "const" }
	for _, nd := range order {
		for _, in := range nd.Inputs {
			if computed(in) && pass[in] < pass[nd.Pos()] {
				mat[in] = true
			}
		}
	}
	for _, r := range roots {
		if computed(r) && pass[r] < last {
			mat[r] = true
		}
	}
	var out []int32
	for _, nd := range order {
		if mat[nd.Pos()] {
			out = append(out, nd.Pos())
		}
	}
	return out
}

// Command dfg-par reproduces the paper's distributed-memory parallel
// demonstration (Section V-C): the full RT time step, decomposed into
// 3072 sub-grids, processed with the fusion strategy by 256 MPI tasks
// on 128 simulated nodes with two GPUs each — at a reduced cell count
// per block (-scale) so it runs on one machine.
//
//	dfg-par                   # paper structure at 1/16 linear scale
//	dfg-par -verify           # also check the result is seam-free
//	dfg-par -ranks 64 -scale 32
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"dfg"
	"dfg/internal/mesh"
	"dfg/internal/par"
	"dfg/internal/render"
	"dfg/internal/rtsim"
)

func main() {
	var (
		scale    = flag.Int("scale", 16, "divide the 3072^3 domain's dimensions by this factor")
		ranks    = flag.Int("ranks", 256, "number of simulated MPI tasks")
		gpus     = flag.Int("gpus-per-node", 2, "GPUs (and tasks) per node")
		seed     = flag.Int64("seed", 42, "synthetic data seed")
		verify   = flag.Bool("verify", false, "verify the assembled field against a single-grid computation")
		strategy = flag.String("strategy", "fusion", "execution strategy for the blocks")
		ppmOut   = flag.String("ppm", "", "write a pseudo-color mid-height slice of the result (the Figure 7 rendering) to this PPM file")
		rankTbl  = flag.Bool("ranks-table", false, "print the per-rank accounting table")
	)
	flag.Parse()

	domain, parts := rtsim.FullTimeStep(*scale)
	cfg := par.Config{
		Domain:      domain,
		Parts:       parts,
		Ranks:       *ranks,
		GPUsPerNode: *gpus,
		Expression:  dfg.QCriterionExpr,
		Strategy:    *strategy,
		MemScale:    int64(*scale) * int64(*scale) * int64(*scale),
		Seed:        *seed,
	}

	boxes, err := mesh.Split(domain, parts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfg-par:", err)
		os.Exit(1)
	}
	small, large := boxes[0].Dims(), boxes[0].Dims()
	for _, b := range boxes {
		if d := b.Dims(); d.Cells() < small.Cells() {
			small = d
		} else if d.Cells() > large.Cells() {
			large = d
		}
	}
	label := small.String()
	if large != small {
		label += " to " + large.String()
	}
	fmt.Printf("domain:  %v (%d cells), %d sub-grids of %s\n", domain, domain.Cells(), len(boxes), label)
	fmt.Printf("ranks:   %d MPI tasks on %d nodes (%d GPUs/node)\n",
		cfg.Ranks, (cfg.Ranks+cfg.GPUsPerNode-1)/cfg.GPUsPerNode, cfg.GPUsPerNode)

	start := time.Now()
	rep, err := par.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfg-par:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	blocksMin, blocksMax := rep.Ranks[0].Blocks, rep.Ranks[0].Blocks
	var kernels int
	var peak int64
	for _, r := range rep.Ranks {
		if r.Blocks < blocksMin {
			blocksMin = r.Blocks
		}
		if r.Blocks > blocksMax {
			blocksMax = r.Blocks
		}
		kernels += r.Profile.Kernels
		if r.PeakBytes > peak {
			peak = r.PeakBytes
		}
	}
	fmt.Printf("done:    %d blocks in %v (%d-%d blocks/rank, %d fused kernels, max %d B device memory)\n",
		rep.Blocks, elapsed, blocksMin, blocksMax, kernels, peak)

	pos := 0
	for _, v := range rep.Output {
		if v > 0 {
			pos++
		}
	}
	fmt.Printf("q-crit:  %d of %d cells vortical (Q > 0)\n", pos, len(rep.Output))
	fmt.Printf("balance: busiest rank at %.3fx the mean device time\n", rep.Imbalance())

	if *rankTbl {
		fmt.Println()
		fmt.Print(rep.Table().Text())
	}

	if *ppmOut != "" {
		plane, w, h, err := render.Slice(rep.Output, domain, render.Z, domain.NZ/2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-par:", err)
			os.Exit(1)
		}
		f, err := os.Create(*ppmOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-par:", err)
			os.Exit(1)
		}
		if err := render.WritePPM(f, plane, w, h); err != nil {
			fmt.Fprintln(os.Stderr, "dfg-par:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("render:  wrote %s (%dx%d pseudo-color Q-criterion slice)\n", *ppmOut, w, h)
	}

	if *verify {
		golden, _, err := par.GoldenField(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-par:", err)
			os.Exit(1)
		}
		// Equal bits, or NaN on both sides.
		differ := 0
		for i, g := range golden {
			if d := rep.Output[i]; math.Float32bits(d) != math.Float32bits(g) && !(d != d && g != g) {
				differ++
			}
		}
		fmt.Printf("verify:  %d of %d cells differ from the single-grid computation (bit-exact)\n", differ, len(golden))
		if differ > 0 {
			fmt.Fprintln(os.Stderr, "dfg-par: VERIFICATION FAILED")
			os.Exit(1)
		}
	}
}

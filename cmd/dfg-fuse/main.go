// Command dfg-fuse inspects what the framework's front end and fusion
// code generator produce for an expression:
//
//	dfg-fuse -preset qcrit            # generated fused OpenCL C source
//	dfg-fuse -preset vortmag -dot     # dataflow network in Graphviz DOT
//	dfg-fuse -expr 'a = u*u' -script  # network-definition API script
//	dfg-fuse -preset qcrit -dump-passes -opt O2   # per-pass network trace
package main

import (
	"flag"
	"fmt"
	"os"

	"dfg"
	"dfg/internal/expr"
	"dfg/internal/passes"
)

func main() {
	var (
		exprText = flag.String("expr", "", "expression program text (overrides -preset)")
		preset   = flag.String("preset", "qcrit", "expression preset: velmag, vortmag, qcrit or gradmag")
		dot      = flag.Bool("dot", false, "print the dataflow network as Graphviz DOT instead of source")
		script   = flag.Bool("script", false, "print the network-definition API script instead of source")
		grammar  = flag.Bool("grammar", false, "print the expression grammar's LALR(1) state report (PLY's parser.out)")
		dump     = flag.Bool("dump-passes", false, "trace the optimisation pipeline: node counts and eliminated IDs before/after each pass")
		opt      = flag.String("opt", "paper", "optimisation level for -dump-passes: paper or O2")
	)
	flag.Parse()

	if *grammar {
		rep, err := expr.GrammarReport()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-fuse:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
		return
	}

	text := *exprText
	if text == "" {
		switch *preset {
		case "velmag":
			text = dfg.VelocityMagnitudeExpr
		case "vortmag":
			text = dfg.VorticityMagnitudeExpr
		case "qcrit":
			text = dfg.QCriterionExpr
		case "gradmag":
			text = dfg.GradientMagnitudeExpr
		default:
			fmt.Fprintf(os.Stderr, "dfg-fuse: unknown preset %q\n", *preset)
			os.Exit(1)
		}
	}

	if *dump {
		lvl, err := passes.ParseLevel(*opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-fuse:", err)
			os.Exit(1)
		}
		// Debug routes the per-pass trace to stdout; Verify checks the
		// network invariants after every pass, so the dump doubles as a
		// pipeline self-check.
		_, _, err = expr.CompileWithPipeline(text, nil, passes.ForLevel(lvl),
			passes.RunOptions{Debug: os.Stdout, Verify: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfg-fuse:", err)
			os.Exit(1)
		}
		return
	}

	var (
		out string
		err error
	)
	switch {
	case *dot:
		out, err = dfg.NetworkDot(text)
	case *script:
		out, err = dfg.NetworkScript(text)
	default:
		var eng *dfg.Engine
		eng, err = dfg.New(dfg.Config{})
		if err == nil {
			out, err = eng.FusedSource(text)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfg-fuse:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

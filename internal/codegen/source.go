package codegen

import (
	"fmt"
	"strings"

	"dfg/internal/kernels"
	"dfg/internal/passes"
	"dfg/internal/vm"
)

// This file renders the OpenCL C source of the lowered program, flat or
// scheduled. The text is what a real OpenCL runtime would JIT — golden
// tests pin it per transformation — while the numerics come from vm's
// executor running the very instructions rendered here.

// Schedule helper sources, emitted after the tile-geometry defines.
const (
	axisDiffLocalSrc = `// dfg schedule helper: axis difference against a __local staged tile.
// lidx indexes the tile (halo included), gid the global coordinate
// array; lstride/gstride are the axis strides in each space.
inline float dfg_axis_diff_local(__local const float *f,
                                 __global const float *coord,
                                 int lidx, int gid, int p, int n,
                                 int lstride, int gstride)
{
    if (n == 1) {
        return 0.0f;
    }
    if (p == 0) {
        return (f[lidx + lstride] - f[lidx])
             / (coord[gid + gstride] - coord[gid]);
    }
    if (p == n - 1) {
        return (f[lidx] - f[lidx - lstride])
             / (coord[gid] - coord[gid - gstride]);
    }
    return (f[lidx + lstride] - f[lidx - lstride])
         / (coord[gid + gstride] - coord[gid - gstride]);
}
`

	stageTileSrc = `// dfg schedule helper: cooperative stage-in of one (TILE+halo)^2 slab;
// each work-item copies a strided share. Callers barrier before reading.
inline void dfg_stage_tile(__local float *lt,
                           __global const float *src,
                           int tbase, int nx, int lid, int lsz)
{
    for (int t = lid; t < DFG_LTILE; t += lsz) {
        lt[t] = src[tbase + (t / DFG_LW) * nx + (t % DFG_LW)];
    }
}
`

	stageTile4Src = `// dfg schedule helper: vectorized stage-in — float4 interior copies,
// scalar moves for the ragged tail.
inline void dfg_stage_tile4(__local float *lt,
                            __global const float *src,
                            int tbase, int nx, int lid, int lsz)
{
    for (int t = lid * 4; t + 3 < DFG_LTILE; t += lsz * 4) {
        float4 v = vload4(0, src + tbase + (t / DFG_LW) * nx + (t % DFG_LW));
        vstore4(v, 0, (__local float *)(lt + t));
    }
    for (int t = (DFG_LTILE & ~3) + lid; t < DFG_LTILE; t += lsz) {
        lt[t] = src[tbase + (t / DFG_LW) * nx + (t % DFG_LW)];
    }
}
`

	gradTileSrc = `// dfg schedule helper: grad3d over a staged tile — x/y neighbours come
// from local memory, z neighbours stream through global (2.5D tiling).
inline float4 dfg_grad3d_tile(__local const float *lf,
                              __global const float *f,
                              __global const float *dims,
                              __global const float *x,
                              __global const float *y,
                              __global const float *z,
                              int gid, int lidx)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];
    int i = gid % nx;
    int rest = gid / nx;
    int j = rest % ny;
    int k = rest / ny;
    float4 g;
    g.s0 = dfg_axis_diff_local(lf, x, lidx, gid, i, nx, 1, 1);
    g.s1 = dfg_axis_diff_local(lf, y, lidx, gid, j, ny, DFG_LW, nx);
    g.s2 = dfg_axis_diff(f, z, gid, k, nz, nx * ny);
    g.s3 = 0.0f;
    return g;
}
`

	gradAxisTileSrc = `// dfg schedule helper: single-axis gradient over a staged tile.
inline float dfg_grad3d_axis_tile(__local const float *lf,
                                  __global const float *f,
                                  __global const float *dims,
                                  __global const float *coord,
                                  int gid, int lidx, int axis)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];
    int i = gid % nx;
    int rest = gid / nx;
    int j = rest % ny;
    int k = rest / ny;
    if (axis == 0) {
        return dfg_axis_diff_local(lf, coord, lidx, gid, i, nx, 1, 1);
    }
    if (axis == 1) {
        return dfg_axis_diff_local(lf, coord, lidx, gid, j, ny, DFG_LW, nx);
    }
    return dfg_axis_diff(f, coord, gid, k, nz, nx * ny);
}
`

	gradTlocSrc = `// dfg schedule helper: grad3d over temporally recomputed local scratch —
// three staged z-planes (below/center/above), all neighbours local.
inline float4 dfg_grad3d_tloc(__local const float *lf,
                              __global const float *dims,
                              __global const float *x,
                              __global const float *y,
                              __global const float *z,
                              int gid, int lidx)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];
    int i = gid % nx;
    int rest = gid / nx;
    int j = rest % ny;
    int k = rest / ny;
    float4 g;
    g.s0 = dfg_axis_diff_local(lf + DFG_LTILE, x, lidx, gid, i, nx, 1, 1);
    g.s1 = dfg_axis_diff_local(lf + DFG_LTILE, y, lidx, gid, j, ny, DFG_LW, nx);
    g.s2 = dfg_axis_diff_local(lf, z, DFG_LTILE + lidx, gid, k, nz, DFG_LTILE, nx * ny);
    g.s3 = 0.0f;
    return g;
}
`

	gradAxisTlocSrc = `// dfg schedule helper: single-axis gradient over temporal local scratch.
inline float dfg_grad3d_axis_tloc(__local const float *lf,
                                  __global const float *dims,
                                  __global const float *coord,
                                  int gid, int lidx, int axis)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];
    int i = gid % nx;
    int rest = gid / nx;
    int j = rest % ny;
    int k = rest / ny;
    if (axis == 0) {
        return dfg_axis_diff_local(lf + DFG_LTILE, coord, lidx, gid, i, nx, 1, 1);
    }
    if (axis == 1) {
        return dfg_axis_diff_local(lf + DFG_LTILE, coord, lidx, gid, j, ny, DFG_LW, nx);
    }
    return dfg_axis_diff_local(lf, coord, DFG_LTILE + lidx, gid, k, nz, DFG_LTILE, nx * ny);
}
`
)

// renderCtx carries the per-render bookkeeping of the source walk: which
// helper functions the emitted statements ended up needing.
type renderCtx struct {
	staged     map[string]bool // staged field arg name -> true
	needsTile  bool            // emitted a dfg_grad3d_tile call
	needsAxisT bool            // emitted a dfg_grad3d_axis_tile call
	needsTloc  bool            // emitted a dfg_grad3d_tloc call
	needsAxisL bool            // emitted a dfg_grad3d_axis_tloc call
	needsFlat  bool            // emitted a flat dfg_grad3d call
	needsAxisF bool            // emitted a flat dfg_grad3d_axis call
}

// renderSource assembles the kernel's OpenCL C: the shared primitive
// functions, then one kernel entry per pass (a single entry in the
// common fully-fused case, and always under temporal fusion).
func (g *generator) renderSource() string {
	s := g.sched
	spec := s.Spec
	ctx := &renderCtx{staged: make(map[string]bool, len(s.Staged))}
	for _, st := range s.Staged {
		ctx.staged[st.Field] = true
	}
	tiled := spec.Tiled() && (len(s.Staged) > 0 || s.Temporal)
	numPasses := len(g.low.Passes)

	// Render the kernel bodies first: they decide which helpers the
	// header must include.
	var kernelsSrc []string
	if s.Temporal {
		kernelsSrc = append(kernelsSrc, g.renderTiledKernel(ctx, "kfused_"+g.name, -1))
	} else {
		for p := 0; p < numPasses; p++ {
			name := "kfused_" + g.name
			if numPasses > 1 {
				name = fmt.Sprintf("%s_pass%d", name, p)
			}
			if tiled {
				kernelsSrc = append(kernelsSrc, g.renderTiledKernel(ctx, name, p))
			} else {
				kernelsSrc = append(kernelsSrc, g.renderLinearKernel(ctx, name, p))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// fused derived-field kernel %q generated by dfg/codegen\n", g.name)
	if g.tag != "" {
		fmt.Fprintf(&b, "// schedule: %s\n", spec)
	}
	for _, st := range s.Staged {
		fmt.Fprintf(&b, "//   stage %s -> __local %s (%d stencil(s), halo 1)\n", st.Field, st.Local, st.Stencils)
	}
	if len(s.VectorLoads) > 0 {
		fmt.Fprintf(&b, "//   vload%d sources: %s\n", spec.Vector, strings.Join(s.VectorLoads, ", "))
	}
	if s.VectorStage {
		fmt.Fprintf(&b, "//   vectorized staging copies (float%d)\n", spec.Vector)
	}
	if s.Temporal {
		fmt.Fprintf(&b, "//   temporal: %d passes fused per tile (halo recompute, no global scratch)\n", s.Passes)
	} else {
		fmt.Fprintf(&b, "// %d pass(es); intermediate results in device registers\n", numPasses)
	}
	if tiled {
		b.WriteString("\n")
		fmt.Fprintf(&b, "#define DFG_TILE_X %d\n", spec.TileX)
		fmt.Fprintf(&b, "#define DFG_TILE_Y %d\n", spec.TileY)
		b.WriteString("#define DFG_LW (DFG_TILE_X + 2)\n")
		b.WriteString("#define DFG_LH (DFG_TILE_Y + 2)\n")
		b.WriteString("#define DFG_LTILE (DFG_LW * DFG_LH)\n")
	}
	if spec.Register > 1 {
		if !tiled {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "#define DFG_REG %d\n", spec.Register)
	}
	local := ctx.needsTile || ctx.needsAxisT || ctx.needsTloc || ctx.needsAxisL
	if local || ctx.needsFlat || ctx.needsAxisF {
		b.WriteString("\n")
		b.WriteString(kernels.Grad3DFunction) // defines dfg_axis_diff (+ flat dfg_grad3d)
		if ctx.needsAxisF {
			b.WriteString("\n")
			b.WriteString(kernels.Grad3DAxisFunction)
		}
	}
	if local {
		b.WriteString("\n")
		b.WriteString(axisDiffLocalSrc)
	}
	if tiled && len(g.stagedForPass(-1)) > 0 {
		b.WriteString("\n")
		if s.VectorStage {
			b.WriteString(stageTile4Src)
		} else {
			b.WriteString(stageTileSrc)
		}
	}
	for _, h := range []struct {
		need bool
		src  string
	}{
		{ctx.needsTile, gradTileSrc},
		{ctx.needsAxisT, gradAxisTileSrc},
		{ctx.needsTloc, gradTlocSrc},
		{ctx.needsAxisL, gradAxisTlocSrc},
	} {
		if h.need {
			b.WriteString("\n")
			b.WriteString(h.src)
		}
	}
	for _, k := range kernelsSrc {
		b.WriteString("\n")
		b.WriteString(k)
	}
	return b.String()
}

// kernelHead opens one kernel entry: the pass comment of a multi-pass
// program, the signature and the opening brace.
func (g *generator) kernelHead(b *strings.Builder, name string, p int) {
	if p >= 0 && len(g.low.Passes) > 1 {
		fmt.Fprintf(b, "// pass %d (device-wide barrier before the next pass;\n", p)
		b.WriteString("// the runtime dispatches all passes as one fused launch)\n")
	}
	params := make([]string, 0, len(g.low.Buffers))
	for _, a := range g.low.Buffers {
		if g.fused[a.Name] {
			continue // temporal scratch is __local, not an argument
		}
		qual := "__global const "
		if a.Kind != ArgSource {
			qual = "__global " // scratch is written then read; out is written
		}
		params = append(params, fmt.Sprintf("    %s%s *%s", qual, cTypeFor(a.Width), a.Name))
	}
	fmt.Fprintf(b, "__kernel void %s(\n%s)\n{\n", name, strings.Join(params, ",\n"))
}

// writeStmts renders pass p's statements into b, one per line.
func (g *generator) writeStmts(b *strings.Builder, ctx *renderCtx, p int, indent, gidExpr string, vec bool) {
	for _, line := range g.stmts(ctx, p, gidExpr, vec) {
		b.WriteString(indent)
		b.WriteString(line)
		b.WriteString("\n")
	}
}

// renderLinearKernel renders an untiled pass body: the flat 1D iteration
// shape, under a schedule with vectorized loads and/or register
// blocking.
func (g *generator) renderLinearKernel(ctx *renderCtx, name string, p int) string {
	s := g.sched
	// Vector loads only apply to fully elementwise networks, which are
	// always single-pass.
	vec := len(s.VectorLoads) > 0
	var b strings.Builder
	g.kernelHead(&b, name, p)
	b.WriteString("    int gid = get_global_id(0);\n")
	indent := "    "
	if s.Spec.Register > 1 {
		b.WriteString("    // register blocking: each work-item carries DFG_REG elements\n")
		b.WriteString("    #pragma unroll\n")
		b.WriteString("    for (int rb = 0; rb < DFG_REG; ++rb, gid += get_global_size(0)) {\n")
		indent = "        "
	}
	for _, src := range s.VectorLoads {
		fmt.Fprintf(&b, "%sfloat%d v_%s = vload%d(gid, %s);\n", indent, s.Spec.Vector, src, s.Spec.Vector, src)
	}
	g.writeStmts(&b, ctx, p, indent, "gid", vec)
	if s.Spec.Register > 1 {
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// renderTiledKernel renders a tiled pass body (p == -1 renders the
// temporally fused kernel covering both passes).
func (g *generator) renderTiledKernel(ctx *renderCtx, name string, p int) string {
	s := g.sched
	spec := s.Spec

	// Tiled kernels read nx/ny from the dims source feeding the
	// network's stencils (every stencil shares it).
	dimsName := "dims"
	g.stencils(-1, func(in *vm.Instr, _ string) { dimsName = g.low.Buffers[in.GBufs[1]].Name })

	// Which fields stage from global in this kernel: staged fields read
	// by the stencils of the rendered pass(es), minus fused scratch.
	stage := g.stagedForPass(p)

	var b strings.Builder
	g.kernelHead(&b, name, p)
	fmt.Fprintf(&b, "    int nx = (int)%s[0];\n", dimsName)
	fmt.Fprintf(&b, "    int ny = (int)%s[1];\n", dimsName)
	b.WriteString("    int lx = get_local_id(0);\n")
	b.WriteString("    int ly = get_local_id(1);\n")
	b.WriteString("    int lid = ly * DFG_TILE_X + lx;\n")
	b.WriteString("    int lsz = DFG_TILE_X * DFG_TILE_Y;\n")
	b.WriteString("    int lidx = (ly + 1) * DFG_LW + (lx + 1);\n")
	b.WriteString("    int gid = (get_group_id(1) * DFG_TILE_Y + ly) * nx\n")
	b.WriteString("            + get_group_id(0) * DFG_TILE_X + lx;\n")
	b.WriteString("    int tbase = (get_group_id(1) * DFG_TILE_Y - 1) * nx\n")
	b.WriteString("              + get_group_id(0) * DFG_TILE_X - 1;\n")
	b.WriteString("    // (the host pads the 2D launch grid to tile multiples;\n")
	b.WriteString("    //  edge tiles mask their stores)\n")

	// Local declarations.
	for _, st := range stage {
		fmt.Fprintf(&b, "    __local float %s[DFG_LTILE];\n", st.Local)
	}
	for _, a := range g.low.Buffers {
		if g.fused[a.Name] {
			fmt.Fprintf(&b, "    __local %s l_%s[3 * DFG_LTILE]; // temporal scratch: z-planes below/center/above\n",
				cTypeFor(a.Width), a.Name)
		}
	}

	indent := "    "
	if spec.Register > 1 {
		b.WriteString("    // register blocking: each work-item walks DFG_REG z-planes\n")
		b.WriteString("    #pragma unroll\n")
		b.WriteString("    for (int rb = 0; rb < DFG_REG; ++rb, gid += nx * ny, tbase += nx * ny) {\n")
		indent = "        "
	}

	// Stage-in + barrier.
	stageFn := "dfg_stage_tile"
	if s.VectorStage {
		stageFn = "dfg_stage_tile4"
	}
	if spec.Register > 1 && (len(stage) > 0 || s.Temporal) {
		fmt.Fprintf(&b, "%sbarrier(CLK_LOCAL_MEM_FENCE); // retire the previous plane's tile\n", indent)
	}
	for _, st := range stage {
		fmt.Fprintf(&b, "%s%s(%s, %s, tbase, nx, lid, lsz);\n", indent, stageFn, st.Local, st.Field)
	}

	if s.Temporal {
		// Producer pass: recompute over the three staged z-planes (halo
		// included) into local scratch, then barrier and run the
		// consumer pass against it.
		b.WriteString(indent + "// temporal fusion: recompute pass 0 over tile+halo into local\n")
		b.WriteString(indent + "// scratch (3 z-planes); pass 1 then reads every neighbourhood\n")
		b.WriteString(indent + "// from local memory — the global round-trip disappears.\n")
		b.WriteString(indent + "for (int t = lid; t < 3 * DFG_LTILE; t += lsz) {\n")
		b.WriteString(indent + "    int hgid = tbase + ((t / DFG_LTILE) - 1) * nx * ny\n")
		b.WriteString(indent + "             + ((t % DFG_LTILE) / DFG_LW) * nx + (t % DFG_LW);\n")
		g.writeStmts(&b, ctx, 0, indent+"    ", "hgid", false)
		b.WriteString(indent + "}\n")
		fmt.Fprintf(&b, "%sbarrier(CLK_LOCAL_MEM_FENCE);\n", indent)
		g.writeStmts(&b, ctx, 1, indent, "gid", false)
	} else {
		if len(stage) > 0 {
			fmt.Fprintf(&b, "%sbarrier(CLK_LOCAL_MEM_FENCE);\n", indent)
		}
		g.writeStmts(&b, ctx, p, indent, "gid", false)
	}

	if spec.Register > 1 {
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// stagedForPass lists the staged fields whose stencils run in pass p
// (p == -1: any pass) and really stage from global memory — temporally
// fused intermediates are recomputed locally, not staged.
func (g *generator) stagedForPass(p int) []passes.StagedField {
	want := make(map[string]bool)
	g.stencils(p, func(_ *vm.Instr, field string) { want[field] = true })
	var out []passes.StagedField
	for _, st := range g.sched.Staged {
		if want[st.Field] && !g.fused[st.Field] {
			out = append(out, st)
		}
	}
	return out
}

// stmts renders pass p's instructions as C statements. gidExpr is the
// linear element index expression ("gid", or "hgid" inside the temporal
// recompute loop); vec widens the body to the vector type. Loads and
// constants emit no statement of their own: they only set the expression
// their register stands for (sources are read inline, constants are
// literals), so a value is named r<N> exactly when this pass computed
// it.
func (g *generator) stmts(ctx *renderCtx, p int, gidExpr string, vec bool) []string {
	s := g.sched
	inTemporalLoop := s.Temporal && p == 0
	scalarType := "float"
	if vec {
		scalarType = cTypeFor(s.Spec.Vector)
	}
	bufs := g.low.Buffers
	name := func(b uint16) string { return bufs[b].Name }

	var (
		stmts []string
		reads []uint16
	)
	pass := g.low.Passes[p]
	for i := range pass {
		in := &pass[i]
		r := in.Dst
		switch f := in.Filter(); f {
		case "load":
			switch buf := bufs[in.Buf]; {
			case vec:
				g.expr[r] = "v_" + buf.Name
			case g.fused[buf.Name]:
				// Temporally fused: read the center plane of the local
				// scratch instead of a global array.
				g.expr[r] = fmt.Sprintf("l_%s[DFG_LTILE + lidx]", buf.Name)
			default:
				g.expr[r] = buf.Name + "[" + gidExpr + "]"
			}
			continue
		case "const":
			g.expr[r] = cFloat(in.Val)
			continue
		case "store":
			switch buf := bufs[in.Buf]; {
			case g.fused[buf.Name]:
				stmts = append(stmts, fmt.Sprintf("l_%s[t] = %s;", buf.Name, g.expr[in.A]))
			case vec:
				stmts = append(stmts, fmt.Sprintf("vstore%d(%s, %s, %s);", s.Spec.Vector, g.expr[in.A], gidExpr, buf.Name))
			default:
				stmts = append(stmts, fmt.Sprintf("%s[%s] = %s;", buf.Name, gidExpr, g.expr[in.A]))
			}
			continue
		case "grad3d":
			field := name(in.GBufs[0])
			coords := fmt.Sprintf("%s, %s, %s, %s", name(in.GBufs[1]), name(in.GBufs[2]), name(in.GBufs[3]), name(in.GBufs[4]))
			switch {
			case g.fused[field] && !inTemporalLoop:
				// Stencil over temporally recomputed local scratch.
				ctx.needsTloc = true
				stmts = append(stmts, fmt.Sprintf("float4 r%d = dfg_grad3d_tloc(l_%s, %s, %s, lidx);", r, field, coords, gidExpr))
			case ctx.staged[field] && !inTemporalLoop:
				// Stencil over a tile staged from global memory.
				ctx.needsTile = true
				stmts = append(stmts, fmt.Sprintf("float4 r%d = dfg_grad3d_tile(l_%s, %s, %s, %s, lidx);", r, field, field, coords, gidExpr))
			default:
				// Flat global stencil (inside the temporal recompute
				// loop the staged tile does not cover the halo planes).
				ctx.needsFlat = true
				stmts = append(stmts, fmt.Sprintf("float4 r%d = dfg_grad3d(%s, %s, %s);", r, field, coords, gidExpr))
			}
		case "grad3dx", "grad3dy", "grad3dz":
			// Single-axis stencil: a scalar result, reading only the one
			// coordinate array it differences against.
			field, dims, coord, axis := name(in.GBufs[0]), name(in.GBufs[1]), name(in.GBufs[2+in.Comp]), in.Comp
			switch {
			case g.fused[field] && !inTemporalLoop:
				ctx.needsAxisL = true
				stmts = append(stmts, fmt.Sprintf("float r%d = dfg_grad3d_axis_tloc(l_%s, %s, %s, %s, lidx, %d);", r, field, dims, coord, gidExpr, axis))
			case ctx.staged[field] && !inTemporalLoop:
				ctx.needsAxisT = true
				stmts = append(stmts, fmt.Sprintf("float r%d = dfg_grad3d_axis_tile(l_%s, %s, %s, %s, %s, lidx, %d);", r, field, field, dims, coord, gidExpr, axis))
			default:
				ctx.needsAxisF = true
				stmts = append(stmts, fmt.Sprintf("float r%d = dfg_grad3d_axis(%s, %s, %s, %s, %d);", r, field, dims, coord, gidExpr, axis))
			}
		case "decompose":
			stmts = append(stmts, fmt.Sprintf("float r%d = %s.s%d;", r, g.expr[in.A], in.Comp))
		case "norm":
			stmts = append(stmts, fmt.Sprintf("float r%d = sqrt(%[2]s.s0*%[2]s.s0 + %[2]s.s1*%[2]s.s1 + %[2]s.s2*%[2]s.s2);", r, g.expr[in.A]))
		default:
			tmpl, ok := kernels.ExprTemplate(f)
			if !ok {
				// The lowering's opcode table and the template table are
				// both static; only a bug can make them disagree.
				panic("codegen: no expression template for lowered filter " + f)
			}
			reads = in.Reads(reads[:0])
			exprs := make([]any, len(reads))
			for k, a := range reads {
				exprs[k] = g.expr[a]
			}
			stmts = append(stmts, fmt.Sprintf("%s r%d = %s;", scalarType, r, fmt.Sprintf(tmpl, exprs...)))
		}
		g.expr[r] = fmt.Sprintf("r%d", r) // computed here: named by its register
	}
	return stmts
}

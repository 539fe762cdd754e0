package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dfg"
	"dfg/internal/serve"
	"dfg/internal/vortex"
)

// opKind is the shape of one workload operation.
type opKind int

const (
	// directOp is a warm Prepared.EvalMesh by one caller.
	directOp opKind = iota
	// coldOp is Prepare of a never-seen text, one EvalMesh, Close.
	coldOp
	// serveOp is Pool.Submit from two closed-loop clients.
	serveOp
)

// spec fixes one workload. Names are the contract later issues cite.
type spec struct {
	name   string
	why    string
	kind   opKind
	edge   int    // uniform mesh of edge³ cells
	opt    string // optimisation level the workload's engine compiles at
	warmup int    // ops run before the window; fixed so warm state is the same every run
}

var specs = []spec{
	{"insitu_large", "warm Q-criterion on a 64^3 sub-grid by one caller: arithmetic-bound, codegen closures and ocl execute do the work", directOp, 64, "", 200},
	{"small_hot", "the same call on an 8^3 mesh: overhead-bound, so bind, arena bookkeeping and per-launch allocation dominate", directOp, 8, "", 20000},
	{"cold_compile", "every op prepares a never-seen expression on a 4^3 mesh: parse, passes, fuse and cache-miss paths do the work", coldOp, 4, "O2", 1000},
	{"serve_closed", "two closed-loop clients on a two-worker tiered pool over 8 hot expressions at N=12^3: queue, cache-hit and vm paths", serveOp, 12, "O2", 10000},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	serveClients = 2
	serveHotSet  = 8
	mixLen       = 4096
)

// expression is one text handed to the library and the float64 golden
// its output is checked against.
type expression struct {
	text   string
	golden []float64
}

// inputs is everything a workload hands the library, generated from the
// seed before any clock starts.
type inputs struct {
	spec   spec
	seed   int64
	mesh   *dfg.Mesh
	fields map[string][]float32
	// hot holds the repeatedly evaluated texts: one for the direct
	// workloads, serveHotSet for serve, none for cold.
	hot []expression
	// stem is the expression every cold variant extends, and stemVar the
	// name of its result (see variant).
	stem    expression
	stemVar string
	// mix is each serve client's seed-derived order over the hot set.
	mix [serveClients][]uint8
	// hash fingerprints texts, fields and mix, so two runs can show
	// they measured the same inputs.
	hash string
}

// serveText is the serve workload's expression family: structurally
// identical texts that differ in one constant, so the hot set has
// serveHotSet fingerprints of equal cost.
func serveText(c float64) string {
	return fmt.Sprintf("m = sqrt(u*u + v*v + w*w)\nr = m * %.6f + w", c)
}

// generate builds a workload's inputs. Equal seeds give equal inputs.
func generate(s spec, seed int64) (*inputs, error) {
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: s.edge, NY: s.edge, NZ: s.edge}, 1, 1, 1)
	if err != nil {
		return nil, err
	}
	f := dfg.GenerateRT(m, seed)
	in := &inputs{spec: s, seed: seed, mesh: m, fields: dfg.FieldInputs(f)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	n := m.Cells()
	switch s.kind {
	case serveOp:
		for k := 0; k < serveHotSet; k++ {
			c := 1 + float64(rng.Intn(900000)+100000)/1e6
			// The hand-written golden for the serve family.
			g := make([]float64, n)
			for i := range g {
				u, v, w := float64(f.U[i]), float64(f.V[i]), float64(f.W[i])
				g[i] = math.Sqrt(u*u+v*v+w*w)*c + w
			}
			in.hot = append(in.hot, expression{serveText(c), g})
		}
		in.stem, in.stemVar = in.hot[0], "r"
		for c := range in.mix {
			in.mix[c] = make([]uint8, mixLen)
			for i := range in.mix[c] {
				in.mix[c][i] = uint8(rng.Intn(serveHotSet))
			}
		}
	default:
		g := make([]float64, n)
		for i, q := range vortex.QCriterion(f.U, f.V, f.W, m) {
			g[i] = float64(q)
		}
		in.stem, in.stemVar = expression{dfg.QCriterionExpr, g}, "q"
		if s.kind == directOp {
			in.hot = []expression{in.stem}
		}
	}

	h := sha256.New()
	for _, e := range in.hot {
		h.Write([]byte(e.text))
	}
	if s.kind == coldOp {
		for i := 0; i < 4; i++ {
			text, _, _ := in.variantText(i)
			h.Write([]byte(text))
		}
	}
	for _, name := range []string{"u", "v", "w"} {
		binary.Write(h, binary.LittleEndian, in.fields[name])
	}
	for c := range in.mix {
		h.Write(in.mix[c])
	}
	in.hash = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}

// variant returns the i-th cold expression: the stem (Q-criterion for
// the mesh workloads) plus a tail "t = q * a + b" whose constants encode
// i, so no two ops of a run (and no op and the warm-up) share a
// fingerprint and every op misses the compile and plan caches. The
// constants keep a fixed digit count so every variant costs the same to
// lex and parse.
func (in *inputs) variant(i int) expression {
	text, a, b := in.variantText(i)
	g := make([]float64, len(in.stem.golden))
	for k, q := range in.stem.golden {
		g[k] = q*a + b
	}
	return expression{text, g}
}

// variantText is variant without the golden, for callers that only
// need a never-seen text.
func (in *inputs) variantText(i int) (text string, a, b float64) {
	// i -> a is a bijection on [0, 1e6): the multiplier is coprime to 1e6.
	ai := (uint64(i)*700001 + uint64(in.seed)*7919) % 1000000
	bi := (uint64(i)*300007 + uint64(in.seed)*104729) % 1000000
	a = 1 + float64(ai)/1e6
	b = float64(bi) / 1e6
	return fmt.Sprintf("%s\nt = %s * %.6f + %.6f", in.stem.text, in.stemVar, a, b), a, b
}

// verify checks an output against its float64 golden: every element
// within 1e-3 of the golden's largest magnitude.
func verify(out []float32, golden []float64) error {
	if len(out) != len(golden) {
		return fmt.Errorf("output has %d elements, golden %d", len(out), len(golden))
	}
	var scale float64
	for _, g := range golden {
		scale = math.Max(scale, math.Abs(g))
	}
	tol := 1e-3 * scale
	for i, g := range golden {
		if d := math.Abs(float64(out[i]) - g); !(d <= tol) {
			return fmt.Errorf("element %d: got %g, golden %g (tolerance %g)", i, out[i], g, tol)
		}
	}
	return nil
}

// sameBits reports whether an op's output is bit-identical to the
// verified one — the per-op check behind ok_share.
func sameBits(out, want []float32) bool {
	if len(out) != len(want) {
		return false
	}
	for i, v := range want {
		if math.Float32bits(out[i]) != math.Float32bits(v) {
			return false
		}
	}
	return true
}

// session is a workload's live library state after set-up: the engine
// or pool, and the verified outputs later ops are compared against.
type session struct {
	in   *inputs
	eng  *dfg.Engine
	prep *dfg.Prepared
	pool *serve.Pool
	// want[k] is the verified output of in.hot[k].
	want [][]float32
	// next numbers the cold variants this session has consumed.
	next int
}

func (s *session) close() {
	if s.prep != nil {
		s.prep.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
}

// engineConfig is the direct and cold workloads' engine.
func engineConfig(sp spec) dfg.Config {
	return dfg.Config{Device: dfg.CPU, Strategy: "fusion", Opt: sp.opt}
}

// poolConfig is the serve workload's pool. Batching is off (the pool
// default); O2 is the pool's own default level, spelled out.
var poolConfig = serve.Config{Workers: 2, QueueDepth: 8, Strategy: "tiered", Opt: "O2"}

// open makes the first library call through to the first verified
// result and returns how long that took — what setup_s reports — then
// verifies the rest of the hot set. Nothing before it touches the
// library except input generation.
func open(in *inputs) (*session, time.Duration, error) {
	s := &session{in: in}
	var first expression
	if in.spec.kind == coldOp {
		first = in.variant(0)
		s.next = 1
	} else {
		first = in.hot[0]
	}

	start := time.Now()
	out, err := s.first(first.text)
	if err == nil {
		err = verify(out, first.golden)
	}
	setup := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("%s: first result: %w", in.spec.name, err)
	}

	s.want = [][]float32{out}
	for k := 1; k < len(in.hot); k++ {
		out, err := s.submit(k)
		if err == nil {
			err = verify(out, in.hot[k].golden)
		}
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("%s: hot expression %d: %w", in.spec.name, k, err)
		}
		s.want = append(s.want, out)
	}
	return s, setup, nil
}

// first builds the workload's engine or pool and returns its first
// result.
func (s *session) first(text string) ([]float32, error) {
	var err error
	if s.in.spec.kind == serveOp {
		if s.pool, err = serve.NewPool(poolConfig); err != nil {
			return nil, err
		}
		return s.submit(0)
	}
	if s.eng, err = dfg.New(engineConfig(s.in.spec)); err != nil {
		return nil, err
	}
	if s.in.spec.kind == coldOp {
		return s.coldEval(text)
	}
	if s.prep, err = s.eng.Prepare(text); err != nil {
		return nil, err
	}
	return s.evalMesh()
}

// op runs client c's i-th operation, timing only the library call, and
// reports whether it returned no error and the right output: bit-equal
// to the verified result for the repeated texts, within tolerance of
// its own golden for a cold variant.
func (s *session) op(c, i int) (time.Duration, bool) {
	in := s.in
	switch in.spec.kind {
	case coldOp:
		v := in.variant(s.next)
		s.next++
		t0 := time.Now()
		out, err := s.coldEval(v.text)
		d := time.Since(t0)
		return d, err == nil && verify(out, v.golden) == nil
	case serveOp:
		k := int(in.mix[c][i%mixLen])
		t0 := time.Now()
		out, err := s.submit(k)
		d := time.Since(t0)
		return d, err == nil && sameBits(out, s.want[k])
	default:
		t0 := time.Now()
		out, err := s.evalMesh()
		d := time.Since(t0)
		return d, err == nil && sameBits(out, s.want[0])
	}
}

// evalMesh is one direct op: the warm prepared evaluation.
func (s *session) evalMesh() ([]float32, error) {
	res, err := s.prep.EvalMesh(s.in.mesh, s.in.fields)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// coldEval is one cold op: prepare a text, evaluate it once, close.
func (s *session) coldEval(text string) ([]float32, error) {
	p, err := s.eng.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	res, err := p.EvalMesh(s.in.mesh, s.in.fields)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// submit is one serve op for hot expression k.
func (s *session) submit(k int) ([]float32, error) {
	res, err := s.pool.Submit(context.Background(), serve.Request{
		Expr:   s.in.hot[k].text,
		N:      s.in.mesh.Cells(),
		Inputs: s.in.fields,
	})
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

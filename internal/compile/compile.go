// Package compile is the framework's shared compile layer: a
// concurrency-safe compiler that turns expression text plus a named
// definition database into sealed dataflow networks, memoized in a
// shared cache keyed by a content fingerprint (Key).
//
// The paper's framework compiles per instance (one instance per MPI
// task), so a hot expression is compiled once per task. Serving many
// concurrent workers from one process makes that wasteful: this package
// moves cache ownership out of the engine so any number of engines can
// front the same cache. Cache keys fingerprint the expression text
// together with exactly the definitions the expression (transitively)
// references, so redefining a name invalidates the entries that depend
// on it — and only those.
//
// Concurrency: the network, plan and merge caches are three
// instantiations of one type (cache, in cache.go): a read-locked map hit,
// a sync.Once per entry so a missing value is built exactly once no
// matter how many goroutines request it simultaneously
// (singleflight-style deduplication), and a second-chance (CLOCK) bound.
//
// Every text is parsed once in its lifetime: Define keeps the program it
// parses to validate a definition, and resolve hands the one parse of an
// expression on to both its fingerprint and, on a miss, its build.
package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/strategy"
)

// DefaultMaxEntries bounds each cache: once a cache holds this many
// entries, each miss evicts one not hit since the clock hand last passed
// it (entries orphaned by redefinitions age out this way).
const DefaultMaxEntries = 512

// Compiler owns a definition database and a fingerprint-keyed network
// cache. All methods are safe for concurrent use by any number of
// goroutines; the networks it returns are sealed and likewise shareable.
type Compiler struct {
	mu   sync.RWMutex
	defs map[string]definition // copy-on-write: replaced wholesale, never mutated

	nets   cache[Key, *dataflow.Network]
	plans  cache[planKey, strategy.Plan]
	merges cache[Key, *passes.Merged] // keyed by batch key

	inflight atomic.Int64 // network builds currently running (singleflight leaders)

	passMu    sync.Mutex
	passStats map[string]*passAgg // pass name -> cumulative counters
}

// definition is one named expression: its text (what fingerprints
// digest) and the program Define parsed to validate it (what builds
// expand), so a definition is never parsed again.
type definition struct {
	text string
	prog *expr.Program
}

// Key identifies one compiled network: the digest of an expression's
// text and referenced definitions (Digest) at an optimisation level, or
// of a batch's distinct member digests. It is comparable, so it keys the
// network, plan and merge caches as is; String and Short render it only
// where a label is printed.
type Key struct {
	sum   [32]byte
	lvl   passes.Level
	batch bool
}

// String renders the key as its fingerprint text: the digest's 64 hex
// characters, with "-o2" appended above the Paper level (so the Paper
// level's keys read as the bare digest), or "batch:" and the hex digest
// for a batch.
func (k Key) String() string { return k.render(-1) }

// Short abbreviates the key for a label or span attribute: the first
// 12 characters of String (~48 bits, ample for a bounded cache).
func (k Key) Short() string { return k.render(12) }

// render returns String's text, cut to n bytes when n >= 0.
func (k Key) render(n int) string {
	var buf [len("batch:") + 2*sha256.Size]byte // the longest rendering
	b := buf[:0]
	if k.batch {
		b = append(b, "batch:"...)
	}
	b = hex.AppendEncode(b, k.sum[:])
	if !k.batch && k.lvl != passes.LevelPaper {
		b = append(b, "-o2"...)
	}
	if n >= 0 {
		b = b[:n]
	}
	return string(b)
}

// planKey identifies a plan: the network's key, the device class and
// the strategy variant — a value, so streaming@4 and streaming@16
// occupy two slots and "tiered" and "tiered@4096" one.
type planKey struct {
	key    Key
	device string
	strat  strategy.Strategy
}

// passAgg accumulates one optimisation pass's counters across every
// network this compiler built (at any level).
type passAgg struct {
	runs         int64
	nodesRemoved int64
	seconds      float64
}

// NewCompiler returns an empty compiler.
func NewCompiler() *Compiler {
	return &Compiler{passStats: make(map[string]*passAgg)}
}

// Define registers (or replaces) a named expression definition. The text
// must parse, and the parsed program is kept: nothing re-parses a
// definition once it is registered. Cached networks whose expressions
// reference name become unreachable (their fingerprints no longer match)
// and age out of the cache; entries for unrelated expressions are
// untouched.
func (c *Compiler) Define(name, text string) error {
	if name == "" {
		return fmt.Errorf("compile: definition needs a name")
	}
	prog, err := expr.Parse(text)
	if err != nil {
		return fmt.Errorf("compile: definition %q: %w", name, err)
	}
	c.mu.Lock()
	next := make(map[string]definition, len(c.defs)+1)
	for k, v := range c.defs {
		next[k] = v
	}
	next[name] = definition{text: text, prog: prog}
	c.defs = next
	c.mu.Unlock()
	return nil
}

// Definitions lists the defined names, sorted.
func (c *Compiler) Definitions() []string {
	defs := c.snapshot()
	out := make([]string, 0, len(defs))
	for name := range defs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// snapshot returns the current definition map. The map is copy-on-write:
// callers must treat it as read-only.
func (c *Compiler) snapshot() map[string]definition {
	c.mu.RLock()
	defs := c.defs
	c.mu.RUnlock()
	return defs
}

// resolve parses text — the one parse of its lifetime — and derives
// what both the fingerprint and a build need from it: the program, the
// programs of exactly the definitions it transitively references, and
// the cache key (a digest of the text plus those definitions' texts,
// at the level). Unparseable text keys with no definitions. The "parse"
// and "fingerprint" spans open under cs.
func (c *Compiler) resolve(text string, lvl passes.Level, cs *obs.Span) (*expr.Program, map[string]*expr.Program, Key, error) {
	defs := c.snapshot()
	ps := cs.Child("parse")
	p, err := expr.Parse(text)
	ps.Finish()
	if err != nil {
		return nil, nil, Key{sum: Digest(text, nil), lvl: lvl}, err
	}
	fs := cs.Child("fingerprint")
	texts, progs := referencedDefs(p, defs)
	key := Key{sum: Digest(text, texts), lvl: lvl}
	fs.Finish()
	return p, progs, key, nil
}

// CompileTracedAt returns the sealed network for text against the
// current definitions at an optimisation level, compiling on first use;
// concurrent calls for the same (text, referenced definitions, level)
// share one compilation. It enters a "compile" stage of parent covering
// the front-end stages — "parse" (lex + LALR parse to the AST),
// "fingerprint" (definition resolution + digest), the "cache" lookup
// annotated with its outcome (hit, miss, or singleflight-wait when
// another goroutine is mid-build on the same key), and, on a miss, the
// "build" stage (AST -> network construction, the optimisation pass
// pipeline with one "pass:<name>" child span per pass, seal). It also
// returns the cache key, which metrics use to key latency histograms.
// A nil parent span is the no-op path. The key carries the level, so
// the same expression compiled at two levels occupies two cache slots.
func (c *Compiler) CompileTracedAt(text string, lvl passes.Level, parent *obs.Span) (*dataflow.Network, Key, error) {
	cs := parent.Enter("compile")

	p, defs, key, err := c.resolve(text, lvl, cs)
	if err != nil {
		// Parse failures are cheap to rediscover; don't cache them.
		if cs != nil {
			cs.SetAttr("error", err.Error())
		}
		return nil, key, err
	}
	if cs != nil {
		cs.SetAttr("fingerprint", key.Short())
		cs.SetAttr("opt", lvl.String())
	}

	ls := cs.Child("cache")
	net, outcome, err := c.nets.get(key, func() (*dataflow.Network, error) {
		c.inflight.Add(1)
		defer c.inflight.Add(-1)
		bs := cs.Child("build")
		defer bs.Finish()
		net, err := expr.BuildNetworkWithDefinitions(p, defs)
		if err != nil {
			return nil, err
		}
		res, err := passes.ForLevel(lvl).RunWith(net, passes.RunOptions{Parent: bs})
		if err != nil {
			return nil, err
		}
		// Sealed: strategies, engines and this cache read it concurrently.
		net.Seal()
		c.recordPasses(res)
		return net, nil
	})
	ls.SetAttr("outcome", outcome)
	ls.Finish()
	return net, key, err
}

// recordPasses folds one pipeline run into the per-pass counters behind
// the dfg_pass_* metrics.
func (c *Compiler) recordPasses(res *passes.Result) {
	if res == nil || len(res.Records) == 0 {
		return
	}
	c.passMu.Lock()
	for _, rec := range res.Records {
		agg := c.passStats[rec.Pass]
		if agg == nil {
			agg = &passAgg{}
			c.passStats[rec.Pass] = agg
		}
		agg.runs++
		agg.nodesRemoved += int64(len(rec.Removed))
		agg.seconds += rec.Duration.Seconds()
	}
	c.passMu.Unlock()
}

// PassStat is the cumulative account of one optimisation pass across
// every network the compiler built.
type PassStat struct {
	Name         string
	Runs         int64
	NodesRemoved int64
	Seconds      float64
}

// PassStat returns the counters for one pass name (zero-valued if the
// pass never ran).
func (c *Compiler) PassStat(name string) PassStat {
	c.passMu.Lock()
	defer c.passMu.Unlock()
	st := PassStat{Name: name}
	if agg := c.passStats[name]; agg != nil {
		st.Runs, st.NodesRemoved, st.Seconds = agg.runs, agg.nodesRemoved, agg.seconds
	}
	return st
}

// PlanTracedAt is the prepared-execution front door: it compiles text
// via CompileTracedAt, then resolves the strategy's execution plan from
// a second cache keyed by (network key, device class, strategy
// variant). Plans precompute everything that depends only on the
// network and the device — topological order, kernel resolution, fused
// program generation — so engines sharing this compiler also share one
// plan per hot expression. The "plan" stage annotates its cache outcome
// like the network cache does. Returns the plan, the network key, and
// any compile or planning error. The level is part of the key, so plans
// for the same expression at different levels occupy different
// plan-cache slots.
func (c *Compiler) PlanTracedAt(text string, lvl passes.Level, strat strategy.Strategy, dev *ocl.Device, parent *obs.Span) (strategy.Plan, Key, error) {
	net, key, err := c.CompileTracedAt(text, lvl, parent)
	if err != nil {
		return nil, key, err
	}
	plan, err := c.PlanNetTraced(net, key, strat, dev, parent)
	return plan, key, err
}

// PlanNetTraced resolves (or builds) the execution plan for an
// already-compiled network under its key — the shared back half of
// PlanTracedAt, and the front door for prepared handles and the
// recovery ladder's rungs, which plan a network they hold; a merged
// batch super-network's key is MergeTraced's batch key. The key must be
// the one this compiler gave the network, since it keys the shared plan
// cache.
func (c *Compiler) PlanNetTraced(net *dataflow.Network, key Key, strat strategy.Strategy, dev *ocl.Device, parent *obs.Span) (strategy.Plan, error) {
	ps := parent.Enter("plan")
	plan, outcome, err := c.plans.get(planKey{key, dev.Name(), strat},
		func() (strategy.Plan, error) { return strat.Plan(net, dev) })
	ps.SetAttr("outcome", outcome)
	return plan, err
}

// FingerprintAt returns the cache key CompileTracedAt would use for text
// under the current definitions at an optimisation level: a digest of
// the text plus exactly the referenced definitions. Unparseable text
// digests with no definitions.
func (c *Compiler) FingerprintAt(text string, lvl passes.Level) Key {
	_, _, key, _ := c.resolve(text, lvl, nil)
	return key
}

// Stats is a snapshot of the compiler's counters.
type Stats struct {
	// Compiles is how many networks were actually built.
	Compiles int64
	// Hits and Misses count cache lookups.
	Hits, Misses int64
	// Inflight is the number of builds running right now (singleflight
	// leaders mid-compile).
	Inflight int64
	// Entries is the current number of cached networks.
	Entries int
	// Definitions is the current number of named definitions.
	Definitions int
	// PlanBuilds is how many execution plans were actually constructed.
	PlanBuilds int64
	// PlanHits and PlanMisses count plan-cache lookups.
	PlanHits, PlanMisses int64
	// PlanEntries is the current number of cached plans.
	PlanEntries int
	// MergeBuilds is how many batch super-networks were actually merged.
	MergeBuilds int64
	// MergeHits and MergeMisses count merge-cache lookups.
	MergeHits, MergeMisses int64
	// MergeEntries is the current number of cached merged networks.
	MergeEntries int
}

// Stats returns a snapshot of the counters.
func (c *Compiler) Stats() Stats {
	return Stats{
		Compiles:     c.nets.builds.Load(),
		Hits:         c.nets.hits.Load(),
		Misses:       c.nets.misses.Load(),
		Inflight:     c.inflight.Load(),
		Entries:      c.nets.len(),
		Definitions:  len(c.snapshot()),
		PlanBuilds:   c.plans.builds.Load(),
		PlanHits:     c.plans.hits.Load(),
		PlanMisses:   c.plans.misses.Load(),
		PlanEntries:  c.plans.len(),
		MergeBuilds:  c.merges.builds.Load(),
		MergeHits:    c.merges.hits.Load(),
		MergeMisses:  c.merges.misses.Load(),
		MergeEntries: c.merges.len(),
	}
}

// Digest computes the digest a key holds for expression text against a
// definition set. The encoding is injective — every component is length-
// prefixed, definitions are sorted by name — so two different (text,
// defs) pairs never encode identically; SHA-256 then makes key collisions
// cryptographically negligible.
func Digest(text string, defs map[string]string) (sum [32]byte) {
	h := sha256.New()
	var lenBuf [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	put(text)
	names := make([]string, 0, len(defs))
	for name := range defs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put(name)
		put(defs[name])
	}
	h.Sum(sum[:0])
	return sum
}

// referencedDefs returns the texts and programs of the subset of defs
// the program transitively references, mirroring the network builder's
// name resolution: a reference resolves to a definition only if it was
// not assigned earlier in its own scope, and each definition body is
// scanned in its own local scope. Reference cycles terminate the walk
// (the builder rejects them).
func referencedDefs(p *expr.Program, defs map[string]definition) (map[string]string, map[string]*expr.Program) {
	if len(defs) == 0 {
		return nil, nil
	}
	texts := make(map[string]string)
	progs := make(map[string]*expr.Program)
	var scanProgram func(prog *expr.Program)
	var scanNode func(n expr.Node, locals map[string]bool)

	scanNode = func(n expr.Node, locals map[string]bool) {
		switch t := n.(type) {
		case *expr.Ref:
			if locals[t.Name] {
				return
			}
			def, ok := defs[t.Name]
			if !ok {
				return
			}
			if _, seen := texts[t.Name]; seen {
				return
			}
			texts[t.Name], progs[t.Name] = def.text, def.prog
			scanProgram(def.prog)
		case *expr.Unary:
			scanNode(t.X, locals)
		case *expr.Binary:
			scanNode(t.L, locals)
			scanNode(t.R, locals)
		case *expr.Index:
			scanNode(t.Base, locals)
		case *expr.If:
			scanNode(t.Cond, locals)
			scanNode(t.Then, locals)
			scanNode(t.Else, locals)
		case *expr.Call:
			for _, a := range t.Args {
				scanNode(a, locals)
			}
		}
	}
	scanProgram = func(prog *expr.Program) {
		locals := make(map[string]bool)
		for _, s := range prog.Stmts {
			scanNode(s.X, locals)
			if s.Name != "" {
				locals[s.Name] = true
			}
		}
	}
	scanProgram(p)
	return texts, progs
}

package compile

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"

	"dfg/internal/dataflow"
	"dfg/internal/obs"
	"dfg/internal/passes"
)

// This file is the compile layer's batch front door: it keys a set of
// already-compiled member networks, merges them into one multi-root
// super-network (passes.MergeNetworks) with cross-expression CSE, and
// caches the merged result under the batch key with the same cache type
// as the single-expression caches. Batch plans then flow through the
// ordinary plan cache via PlanNetTraced, keyed (batch key, strategy,
// device class), so a recurring batch shape pays merge and plan costs
// once.

// Member is one compiled expression entering a merge: the key and the
// sealed network CompileTracedAt returned for it. A merge's members are
// compiled at one level.
type Member struct {
	Key Key
	Net *dataflow.Network
}

// byDigest orders members by their keys' digests.
func byDigest(a Member, k Key) int { return bytes.Compare(a.Key.sum[:], k.sum[:]) }

// MergeTraced returns the super-network a set of compiled members runs
// as, merging on first use, and its key. The members are sorted by key
// and deduplicated first, so one membership set — in any order, with
// any repeats — merges once, under one batch key: a digest over the
// distinct members' digests at their level. roots[i] is the index in
// the network's Roots() of members[i]'s output (two members whose
// outputs unified share one). Members that are all one expression need
// no merge: the result is that member's own network and key, every
// root 0. The "merge" stage of parent annotates its cache outcome and
// member count like the network cache does.
func (c *Compiler) MergeTraced(members []Member, parent *obs.Span) (_ *passes.Merged, _ Key, roots []int, _ error) {
	if len(members) == 0 {
		return nil, Key{}, nil, fmt.Errorf("compile: merge needs at least one member")
	}
	distinct := slices.Clone(members)
	slices.SortFunc(distinct, func(a, b Member) int { return byDigest(a, b.Key) })
	distinct = slices.CompactFunc(distinct, func(a, b Member) bool { return a.Key == b.Key })
	roots = make([]int, len(members))
	if len(distinct) == 1 {
		return &passes.Merged{Net: distinct[0].Net, Root: []int{0}}, distinct[0].Key, roots, nil
	}
	key := Key{lvl: distinct[0].Key.lvl, batch: true}
	h := sha256.New()
	for _, m := range distinct {
		h.Write(m.Key.sum[:])
	}
	h.Sum(key.sum[:0])

	ms := parent.Enter("merge")
	if ms != nil {
		ms.SetAttr("fingerprint", key.Short())
		ms.SetAttr("members", strconv.Itoa(len(members)))
	}
	merged, outcome, err := c.merges.get(key, func() (*passes.Merged, error) {
		nets := make([]*dataflow.Network, len(distinct))
		for i, m := range distinct {
			nets[i] = m.Net
		}
		return passes.MergeNetworks(nets, key.lvl, passes.RunOptions{Parent: ms})
	})
	ms.SetAttr("outcome", outcome)
	if err != nil {
		return nil, key, nil, err
	}
	if ms != nil {
		ms.SetAttr("shared", strconv.Itoa(merged.Shared))
	}
	for i, m := range members {
		d, _ := slices.BinarySearchFunc(distinct, m.Key, byDigest)
		roots[i] = merged.Root[d]
	}
	return merged, key, roots, nil
}

package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"dfg/internal/obs"
	"dfg/internal/passes"
)

// This file is the compile layer's batch front door: it fingerprints a
// set of already-compiled member networks, merges them into one
// multi-root super-network (passes.MergeNetworks) with cross-expression
// CSE, and caches the merged result under the batch fingerprint with
// the same cache type as the single-expression caches. Batch plans then
// flow through the ordinary plan cache via PlanNetTraced, keyed (batch
// fingerprint, strategy, device class), so a recurring batch shape pays
// merge and plan costs once.

// BatchFingerprint returns the cache fingerprint of a batch: a digest
// over the sorted, de-duplicated member fingerprints. Member order and
// multiplicity do not matter — the same expression set always merges to
// the same super-network. The "batch:" prefix keeps batch keys disjoint
// from single-expression keys (which are hex, optionally "-tag"ged).
// Optimisation level needs no extra tagging: member fingerprints
// already carry their level's cache tag.
func BatchFingerprint(fps []string) string {
	sorted := append([]string(nil), fps...)
	sort.Strings(sorted)
	h := sha256.New()
	var lenBuf [8]byte
	prev := ""
	for i, fp := range sorted {
		if i > 0 && fp == prev {
			continue
		}
		prev = fp
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(fp)))
		h.Write(lenBuf[:])
		h.Write([]byte(fp))
	}
	return "batch:" + hex.EncodeToString(h.Sum(nil))
}

// MergeTraced returns the merged super-network for a set of compiled
// members, merging on first use. Members must already be sealed
// networks from this compiler (Fp is their CompileTracedAt
// fingerprint). Returns the merged result, the batch fingerprint, and
// any merge error. The "merge" child span annotates its cache outcome
// and member count like the network cache does.
func (c *Compiler) MergeTraced(members []passes.MergeMember, lvl passes.Level, parent *obs.Span) (*passes.Merged, string, error) {
	if len(members) == 0 {
		return nil, "", fmt.Errorf("compile: merge needs at least one member")
	}
	fps := make([]string, len(members))
	for i, m := range members {
		fps[i] = m.Fp
	}
	bfp := BatchFingerprint(fps)

	ms := parent.Child("merge")
	defer ms.Finish()
	if ms != nil {
		ms.SetAttr("fingerprint", ShortKey(bfp))
		ms.SetAttr("members", strconv.Itoa(len(members)))
	}

	merged, outcome, err := c.merges.get(bfp, func() (*passes.Merged, error) {
		return passes.MergeNetworks(members, lvl, passes.RunOptions{Parent: ms})
	})
	ms.SetAttr("outcome", outcome)
	if merged != nil && ms != nil {
		ms.SetAttr("shared", strconv.Itoa(merged.Shared))
	}
	return merged, bfp, err
}

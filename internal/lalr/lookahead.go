package lalr

// This file computes LALR(1) lookaheads for the LR(0) automaton using
// the Dragon Book's Algorithm 4.63: for every kernel item, discover
// which lookaheads are generated spontaneously and which propagate from
// other kernel items, then iterate propagation to a fixpoint.

// laItem is an LR(1) item used transiently during closure.
type laItem struct {
	it item
	la string
}

// closure1 computes the LR(1) closure of a set of lookahead items.
func (c *compiled) closure1(seed []laItem) []laItem {
	seen := make(map[laItem]bool, len(seed))
	var out, stack []laItem
	for _, li := range seed {
		if !seen[li] {
			seen[li] = true
			out = append(out, li)
			stack = append(stack, li)
		}
	}
	for len(stack) > 0 {
		li := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sym := c.symbolAfterDot(li.it)
		if !c.nonterm[sym] {
			continue
		}
		p := c.prods[li.it.prod]
		beta := p.Rhs[li.it.dot+1:]
		for t := range c.firstOfSeq(beta, li.la) {
			for _, pi := range c.byLhs[sym] {
				ni := laItem{it: item{prod: pi, dot: 0}, la: t}
				if !seen[ni] {
					seen[ni] = true
					out = append(out, ni)
					stack = append(stack, ni)
				}
			}
		}
	}
	return out
}

// kernelRef addresses one kernel item within one state.
type kernelRef struct {
	state int
	it    item
}

// lookaheads maps every kernel item of every state to its LALR(1)
// lookahead set.
type lookaheads map[kernelRef]map[string]bool

// computeLookaheads runs spontaneous generation and propagation.
func computeLookaheads(a *automaton) lookaheads {
	c := a.c
	las := make(lookaheads)
	propagate := make(map[kernelRef][]kernelRef)

	addLA := func(ref kernelRef, t string) bool {
		set := las[ref]
		if set == nil {
			set = make(map[string]bool)
			las[ref] = set
		}
		if set[t] {
			return false
		}
		set[t] = true
		return true
	}

	// The augmented start item sees end-of-input.
	addLA(kernelRef{0, item{prod: 0, dot: 0}}, end)

	// Discover spontaneous lookaheads and propagation links.
	for si, st := range a.states {
		for _, k := range st.kernel {
			from := kernelRef{si, k}
			for _, li := range c.closure1([]laItem{{it: k, la: hash}}) {
				sym := c.symbolAfterDot(li.it)
				if sym == "" {
					continue
				}
				target := kernelRef{st.gotos[sym], item{prod: li.it.prod, dot: li.it.dot + 1}}
				if li.la == hash {
					propagate[from] = append(propagate[from], target)
				} else {
					addLA(target, li.la)
				}
			}
		}
	}

	// Propagate to fixpoint.
	for changed := true; changed; {
		changed = false
		for from, targets := range propagate {
			for t := range las[from] {
				for _, to := range targets {
					if addLA(to, t) {
						changed = true
					}
				}
			}
		}
	}
	return las
}

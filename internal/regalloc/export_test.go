package regalloc

import (
	"fmt"
	"math/bits"
	"slices"

	"regpromo/internal/ir"
)

// allocRounds allocates fn under k registers round by round, as Func
// does, except that each round's coalescing is coalesceRound, which
// must coalesce g itself. It returns the number of rounds allocation
// took.
func allocRounds(fn *ir.Func, k int, tags ir.TagAlloc, coalesceRound func(g *graph) error) (int, error) {
	firstTemp := ir.Reg(fn.NumRegs)
	sc := new(scratch)
	weights := blockWeights(fn, sc)
	for round := 1; round <= 100; round++ {
		sc.reset()
		g := build(fn, sc, weights)
		if err := coalesceRound(g); err != nil {
			return round, fmt.Errorf("%s round %d: %v", fn.Name, round, err)
		}
		colors, spills := color(g, k, firstTemp)
		if len(spills) == 0 {
			rewrite(fn, g, colors)
			return round, nil
		}
		insertSpills(fn, spills, g, tags)
	}
	return 100, fmt.Errorf("%s did not converge (K=%d)", fn.Name, k)
}

// CheckCoalescedRows allocates fn under k registers, as Func does, and
// after each round's coalescing checks the invariant color and the
// conservative tests read the graph under: usedReps is the set of
// representatives of the registers fn defines or uses, every row holds
// only such representatives and never its own register, r's row holds
// n exactly when n's row holds r, and deg is the row's popcount. It
// returns the number of rounds allocation took.
func CheckCoalescedRows(fn *ir.Func, k int, tags ir.TagAlloc) (int, error) {
	return allocRounds(fn, k, tags, func(g *graph) error {
		coalesce(g, k)
		reps := usedReps(g)
		if want := funcReps(g, fn); !slices.Equal(reps, want) {
			return fmt.Errorf("used representatives %v, want %v", reps, want)
		}
		for r := range g.n {
			row := g.row(ir.Reg(r))
			if got := row.count(); int32(got) != g.deg[r] {
				return fmt.Errorf("deg[r%d] = %d, row holds %d", r, g.deg[r], got)
			}
			var bad error
			row.forEach(func(n ir.Reg) {
				switch {
				case bad != nil:
				case n == ir.Reg(r):
					bad = fmt.Errorf("row r%d holds itself", r)
				case !reps.has(n) || g.find(n) != n:
					bad = fmt.Errorf("row r%d holds r%d, not a used representative", r, n)
				case !g.row(n).has(ir.Reg(r)):
					bad = fmt.Errorf("row r%d holds r%d, but row r%d lacks r%d", r, n, n, r)
				}
			})
			if bad != nil {
				return bad
			}
		}
		return nil
	})
}

// funcReps is the set of representatives of the registers fn's
// instructions define or use, and of its parameters.
func funcReps(g *graph, fn *ir.Func) bitset {
	reps := newBitset(g.n)
	var buf [8]ir.Reg
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if d := in.Def(); d != ir.RegInvalid {
				reps.add(g.find(d))
			}
			for _, u := range in.Uses(buf[:0]) {
				reps.add(g.find(u))
			}
		}
	}
	for _, p := range fn.Params {
		reps.add(g.find(p))
	}
	return reps
}

// probe is one conservative test a coalescing sweep ran: the two
// representatives it tested and its verdict.
type probe struct {
	a, b ir.Reg
	ok   bool
}

// CheckConservativeTests allocates fn under k registers, as Func does,
// and holds each round's coalescing to the full-scan reference. A copy
// of the round's graph is coalesced by referenceCoalesce; the graph
// itself by coalesce, with referenceCanCoalesce re-run on the graph as
// it stands at every probe. It fails at the first probe whose verdict
// differs from the reference's, and when the two sweeps probe
// different pairs, merge differently or leave different rows. It
// returns the number of probes checked.
func CheckConservativeTests(fn *ir.Func, k int, tags ir.TagAlloc) (int, error) {
	checked := 0
	_, err := allocRounds(fn, k, tags, func(g *graph) error {
		ref := g.clone()
		want := referenceCoalesce(ref, k)
		var got []probe
		var bad error
		g.onProbe = func(a, b ir.Reg, ok bool) {
			if refOK := g.referenceCanCoalesce(a, b, k); ok != refOK && bad == nil {
				bad = fmt.Errorf("probe %d: coalesce r%d with r%d: verdict %v, reference %v", len(got), a, b, ok, refOK)
			}
			got = append(got, probe{a, b, ok})
		}
		coalesce(g, k)
		g.onProbe = nil
		switch {
		case bad != nil:
			return bad
		case !slices.Equal(got, want):
			return fmt.Errorf("probes %v, reference %v", got, want)
		}
		checked += len(got)
		return sameGraph(g, ref)
	})
	return checked, err
}

// clone copies the parts of g that coalescing reads and writes, with
// scratch of its own.
func (g *graph) clone() *graph {
	c := *g
	c.sc = new(scratch)
	c.adj = slices.Clone(g.adj)
	c.deg = slices.Clone(g.deg)
	c.alias = slices.Clone(g.alias)
	c.isParam = slices.Clone(g.isParam)
	c.cost = slices.Clone(g.cost)
	c.moves = slices.Clone(g.moves)
	return &c
}

// sameGraph reports the first difference between two coalesced graphs'
// partitions, rows, degrees, parameter marks and costs.
func sameGraph(g, h *graph) error {
	for r := range g.n {
		reg := ir.Reg(r)
		switch {
		case g.find(reg) != h.find(reg):
			return fmt.Errorf("r%d joins r%d, reference r%d", r, g.find(reg), h.find(reg))
		case g.deg[r] != h.deg[r]:
			return fmt.Errorf("deg[r%d] = %d, reference %d", r, g.deg[r], h.deg[r])
		case g.isParam[r] != h.isParam[r] || g.cost[r] != h.cost[r]:
			return fmt.Errorf("r%d: param %v cost %v, reference param %v cost %v", r, g.isParam[r], g.cost[r], h.isParam[r], h.cost[r])
		case !slices.Equal(g.row(reg), h.row(reg)):
			return fmt.Errorf("row r%d differs from the reference's", r)
		}
	}
	return nil
}

// referenceCanCoalesce is the full-scan form of canCoalesce: Briggs
// counts every significant neighbor in the union of both rows and
// George visits every neighbor of y, each neighbor's degree read
// through its representative.
func (g *graph) referenceCanCoalesce(a, b ir.Reg, k int) bool {
	degreeOf := func(r ir.Reg) int { return int(g.deg[g.find(r)]) }
	high := 0
	ra, rb := g.row(a), g.row(b)
	for i := range ra {
		w := ra[i] | rb[i]
		for w != 0 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if r == a || r == b {
				continue
			}
			if degreeOf(r) >= k {
				high++
			}
		}
	}
	if high < k {
		return true
	}
	george := func(x, y ir.Reg) bool {
		ok := true
		xrow := g.row(x)
		g.row(y).forEach(func(r ir.Reg) {
			if !ok || r == x {
				return
			}
			if degreeOf(r) < k || xrow.has(r) {
				return
			}
			ok = false
		})
		return ok
	}
	return george(a, b) || george(b, a)
}

// referenceCoalesce is the full-sweep form of coalesce: every sweep
// visits every move, each test is referenceCanCoalesce, and each merge
// rewrites b's neighbors one at a time. It returns the probes in the
// order it ran them.
func referenceCoalesce(g *graph, k int) []probe {
	var probes []probe
	for changed := true; changed; {
		changed = false
		for _, mv := range g.moves {
			a, b := g.find(mv[0]), g.find(mv[1])
			if a == b || g.row(a).has(b) || g.isParam[a] && g.isParam[b] {
				continue
			}
			ok := g.referenceCanCoalesce(a, b, k)
			probes = append(probes, probe{a, b, ok})
			if !ok {
				continue
			}
			g.alias[b] = a
			arow := g.row(a)
			g.row(b).forEach(func(r ir.Reg) {
				if arow.has(r) {
					g.deg[r]--
				} else {
					arow.add(r)
					g.deg[a]++
					g.row(r).add(a)
				}
				g.row(r).del(b)
			})
			clear(g.row(b))
			g.deg[b] = 0
			g.isParam[a] = g.isParam[a] || g.isParam[b]
			g.cost[a] += g.cost[b]
			changed = true
		}
	}
	return probes
}

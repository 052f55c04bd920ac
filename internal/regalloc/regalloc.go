package regalloc

import (
	"fmt"
	"math/bits"

	"regpromo/internal/cfg"
	"regpromo/internal/ir"
)

// DefaultK is the physical register count used by the experiments,
// matching a generous RISC integer file.
const DefaultK = 32

// Options configure allocation.
type Options struct {
	// K is the number of physical registers (DefaultK when 0).
	K int
}

// Stats reports allocation activity.
type Stats struct {
	// Spilled counts virtual registers sent to memory.
	Spilled int
	// SpillLoads and SpillStores count the static spill operations
	// inserted.
	SpillLoads  int
	SpillStores int
	// Coalesced counts copies eliminated by coalescing (including
	// copies whose ends happened to receive one color).
	Coalesced int
	// Rounds is the number of build–color iterations used.
	Rounds int
	// MaxLive is the largest live set observed at any block boundary
	// while building the interference graph — the register-pressure
	// figure promotion policies are judged against.
	MaxLive int
	// Edges counts the interference edges build added, summed over
	// rounds, and Probes the conservative coalescing tests run: the
	// allocator's host-independent work counts.
	Edges  int
	Probes int
}

// Add folds per-function stats into a module total. Counters sum;
// Rounds and MaxLive take the worst function — max is commutative, so
// parallel per-function allocation folds to the same module totals as
// a serial sweep.
func (s *Stats) Add(o Stats) {
	s.Spilled += o.Spilled
	s.SpillLoads += o.SpillLoads
	s.SpillStores += o.SpillStores
	s.Coalesced += o.Coalesced
	s.Edges += o.Edges
	s.Probes += o.Probes
	if o.Rounds > s.Rounds {
		s.Rounds = o.Rounds
	}
	if o.MaxLive > s.MaxLive {
		s.MaxLive = o.MaxLive
	}
}

// Run allocates registers for every function.
func Run(m *ir.Module, opts Options) (Stats, error) {
	var total Stats
	for _, fn := range m.FuncsInOrder() {
		st, err := Func(fn, opts, &m.Tags)
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// graph is the interference graph with coalescing union-find.
//
// Adjacency is a dense bit matrix, stored row after row in one word
// slice: row r holds one bit per interfering register. The rows are
// kept clean — they only ever contain current union-find
// representatives, because every merge eagerly rewrites the rows that
// mention the dying node — and deg[r] is maintained beside them as row
// r's popcount, so a node's degree is one array read.
type graph struct {
	n     int
	w     int      // words per row
	adj   bitset   // n rows of w words; row(r) is r's
	deg   []int32  // deg[r] = number of bits set in row(r)
	alias []ir.Reg // union-find parent (self when representative)
	// moves lists the copies build found, in body order. coalesce
	// consumes it: it compacts its pending moves in place over this
	// array and leaves the field nil.
	moves [][2]ir.Reg
	cost  []float64
	// isParam marks registers that receive arguments at entry.
	isParam []bool
	// maxLive is the largest live set seen at a block boundary during
	// construction (register pressure).
	maxLive int
	// remat[r], when non-nil, is r's last definition that can be
	// recomputed anywhere (constants and address materializations),
	// in place in the function body; it stays valid until the body is
	// rewritten, and insertSpills copies what it needs first. Spilling
	// a single-definition register with such a definition re-issues it
	// at each use instead of going through memory (Briggs-style
	// rematerialization).
	remat []*ir.Instr
	// defs counts definitions per register.
	defs []int
	// used holds the registers fn defines or uses, its parameters
	// included.
	used bitset
	// edges and probes are the round's Stats.Edges and Stats.Probes.
	edges, probes int
	// onProbe, when set, sees each conservative test coalesce runs,
	// with its verdict, before the merge it allows.
	onProbe func(a, b ir.Reg, ok bool)
	// sc supplies the round's bitsets and per-register arrays.
	sc *scratch
}

func (g *graph) find(r ir.Reg) ir.Reg {
	for g.alias[r] != r {
		g.alias[r] = g.alias[g.alias[r]]
		r = g.alias[r]
	}
	return r
}

func (g *graph) row(r ir.Reg) bitset {
	i := int(r) * g.w
	return g.adj[i : i+g.w : i+g.w]
}

func (g *graph) addEdge(a, b ir.Reg) {
	a, b = g.find(a), g.find(b)
	if a == b {
		return
	}
	ra := g.row(a)
	if ra.has(b) {
		return
	}
	ra.add(b)
	g.row(b).add(a)
	g.deg[a]++
	g.deg[b]++
	g.edges++
}

// addEdges makes d interfere with every member of live but itself,
// a word at a time. It runs before any coalescing, while every
// register is its own representative.
func (g *graph) addEdges(d ir.Reg, live bitset) {
	dw, dbit := int(d)/64, uint64(1)<<(uint(d)%64)
	row := g.row(d)
	for i, w := range live {
		if i == dw {
			w &^= dbit
		}
		if w == 0 {
			continue
		}
		if w &^= row[i]; w == 0 {
			continue
		}
		row[i] |= w
		added := bits.OnesCount64(w)
		g.deg[d] += int32(added)
		g.edges += added
		for ; w != 0; w &= w - 1 {
			r := i*64 + bits.TrailingZeros64(w)
			g.adj[r*g.w+dw] |= dbit
			g.deg[r]++
		}
	}
}

// Func allocates registers for one function. Spill slots are created
// through tags, which is the module tag table in a serial compile and
// a per-function staging allocator under the parallel middle-end.
func Func(fn *ir.Func, opts Options, tags ir.TagAlloc) (Stats, error) {
	k := opts.K
	if k <= 0 {
		k = DefaultK
	}
	var stats Stats
	// Registers created by earlier spill rounds must not spill again:
	// re-spilling a reload temporary shuffles the value through yet
	// another slot without reducing pressure, and the allocator would
	// never converge. Spilling is reserved for original live ranges.
	// Spill rounds only ever append registers, so the temporaries are
	// exactly those numbered from the function's entry count up.
	firstTemp := ir.Reg(fn.NumRegs)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	weights := blockWeights(fn, sc)
	for round := 0; ; round++ {
		if round > 100 {
			return stats, fmt.Errorf("regalloc: %s did not converge after %d rounds (K=%d)", fn.Name, round, k)
		}
		stats.Rounds = round + 1
		// The previous round's graph is dead once its spills are in.
		sc.reset()
		g := build(fn, sc, weights)
		if g.maxLive > stats.MaxLive {
			stats.MaxLive = g.maxLive
		}
		stats.Coalesced += coalesce(g, k)
		stats.Edges += g.edges
		stats.Probes += g.probes
		colors, spills := color(g, k, firstTemp)
		if len(spills) == 0 {
			stats.Coalesced += rewrite(fn, g, colors)
			fn.Allocated = true
			return stats, nil
		}
		st := insertSpills(fn, spills, g, tags)
		stats.Spilled += len(spills)
		stats.SpillLoads += st.SpillLoads
		stats.SpillStores += st.SpillStores
	}
}

// blockWeights removes fn's unreachable blocks and returns each
// block's spill-cost weight, indexed by block id: 10 per level of loop
// nesting, capped near 1e6. Spill rounds add instructions but never
// blocks or edges, so Func computes the weights once for all rounds.
func blockWeights(fn *ir.Func, sc *scratch) []float64 {
	fn.RemoveUnreachable()
	forest := cfg.FindLoops(fn, cfg.Dominators(fn))
	weights := resize(&sc.weights, len(fn.Blocks))
	for _, b := range fn.Blocks {
		weight := 1.0
		for d := forest.Depth(b); d > 0 && weight < 1e6; d-- {
			weight *= 10
		}
		weights[b.ID] = weight
	}
	return weights
}

// build constructs the interference graph in sc's storage, weighting
// each reference's spill cost by its block's entry in weights.
func build(fn *ir.Func, sc *scratch, weights []float64) *graph {
	lv := computeLiveness(fn, sc)
	n := fn.NumRegs
	w := (n + 63) / 64
	g := &graph{
		sc:      sc,
		n:       n,
		w:       w,
		adj:     sc.bitset(n * w * 64),
		deg:     resize(&sc.deg, n),
		alias:   resize(&sc.alias, n),
		cost:    resize(&sc.cost, n),
		isParam: resize(&sc.isParam, n),
		remat:   resize(&sc.remat, n),
		defs:    resize(&sc.defs, n),
		moves:   sc.moves[:0],
		used:    sc.bitset(n),
	}
	for i := range g.alias {
		g.alias[i] = ir.Reg(i)
	}
	for _, p := range fn.Params {
		g.isParam[p] = true
		g.used.add(p)
	}
	// Parameters carry an implicit entry definition, so an in-body
	// constant assignment to one is never rematerializable.
	for _, p := range fn.Params {
		g.defs[p]++
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			d := in.Def()
			if d == ir.RegInvalid {
				continue
			}
			g.defs[d]++
			g.used.add(d)
			switch in.Op {
			case ir.OpLoadI, ir.OpLoadF, ir.OpAddrOf:
				g.remat[d] = in
			}
		}
	}

	var buf [8]ir.Reg
	live := sc.bitset(n)
	for _, b := range fn.Blocks {
		weight := weights[b.ID]
		copy(live, lv.liveOut[b.ID])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			d := in.Def()
			if in.Op == ir.OpCopy {
				g.moves = append(g.moves, [2]ir.Reg{in.Dst, in.A})
				// The copy's source does not interfere with its
				// destination through this def.
				live.del(in.A)
			}
			if d != ir.RegInvalid {
				g.cost[d] += weight
				g.addEdges(d, live)
				live.del(d)
			}
			for _, u := range in.Uses(buf[:0]) {
				g.cost[u] += weight
				g.used.add(u)
				live.add(u)
			}
		}
		if n := live.count(); n > g.maxLive {
			g.maxLive = n
		}
		if b == fn.Entry {
			// Everything live into the entry is defined "at once" by
			// the calling convention (parameters) or reads its zero
			// value; give them mutual edges so they get distinct
			// homes.
			var entryLive []ir.Reg
			live.forEach(func(r ir.Reg) { entryLive = append(entryLive, r) })
			for _, p := range fn.Params {
				entryLive = append(entryLive, p)
			}
			for i := 0; i < len(entryLive); i++ {
				for j := i + 1; j < len(entryLive); j++ {
					if entryLive[i] != entryLive[j] {
						g.addEdge(entryLive[i], entryLive[j])
					}
				}
			}
		}
	}
	// Rematerializable values are nearly free to "spill": bias the
	// allocator toward choosing them under pressure.
	for r, n := range g.defs {
		if n == 1 && g.remat[r] != nil {
			g.cost[r] *= 0.01
		}
	}
	sc.moves = g.moves
	return g
}

// canCoalesce applies the Briggs test (combined node has fewer than K
// neighbors of significant degree) and falls back to the George test
// (every neighbor of b either already interferes with a or is
// insignificant), either of which guarantees coalescing cannot turn a
// colorable graph uncolorable. a and b are non-interfering
// representatives.
//
// Rows hold only representatives, never their own register, and are
// symmetric (TestCoalescedRowsHoldUsedRepresentatives), so a neighbor's
// degree is deg read directly, and neither a nor b appears in the rows
// the tests walk. Each test returns as soon as its answer is known.
func (g *graph) canCoalesce(a, b ir.Reg, k int) bool {
	return g.briggs(a, b, int32(k)) || g.george(a, b, int32(k)) || g.george(b, a, int32(k))
}

// briggs reports whether fewer than k neighbors of a or b have degree
// k or more. It stops counting at the k-th.
func (g *graph) briggs(a, b ir.Reg, k int32) bool {
	ra, rb := g.row(a), g.row(b)
	var high int32
	for i, w := range ra {
		w |= rb[i]
		for ; w != 0; w &= w - 1 {
			if g.deg[i*64+bits.TrailingZeros64(w)] >= k {
				if high++; high == k {
					return false
				}
			}
		}
	}
	return true
}

// george reports whether every neighbor of y that is not already a
// neighbor of x has degree below k. It walks y's row minus x's row and
// stops at the first neighbor that blocks the merge.
func (g *graph) george(x, y ir.Reg, k int32) bool {
	xrow := g.row(x)
	for i, w := range g.row(y) {
		w &^= xrow[i]
		for ; w != 0; w &= w - 1 {
			if g.deg[i*64+bits.TrailingZeros64(w)] >= k {
				return false
			}
		}
	}
	return true
}

// coalesce merges non-interfering move ends when a conservative test
// (Briggs or George) proves the merge safe, sweeping the moves in
// order until a sweep merges nothing.
//
// A move is finished once its ends are one node, interfere, or are
// both parameters (never merged: each receives a distinct argument at
// entry). Each of these stays true under every later merge, so each
// sweep visits only the moves still pending, in their original order,
// and the merge sequence is the one a sweep over every move makes.
// The pending list is compacted in place over g.moves, so coalesce
// consumes the list and leaves g.moves nil.
func coalesce(g *graph, k int) int {
	merged := 0
	pending := g.moves
	for changed := true; changed; {
		changed = false
		kept := pending[:0]
		for _, mv := range pending {
			a, b := g.find(mv[0]), g.find(mv[1])
			if a == b || g.row(a).has(b) || g.isParam[a] && g.isParam[b] {
				continue
			}
			g.probes++
			ok := g.canCoalesce(a, b, k)
			if g.onProbe != nil {
				g.onProbe(a, b, ok)
			}
			if !ok {
				kept = append(kept, mv)
				continue
			}
			g.merge(a, b)
			merged++
			changed = true
		}
		pending = kept
	}
	g.moves = nil
	return merged
}

// merge folds representative b into a, eagerly rewriting every row
// that mentions b so rows keep holding representatives only. a and b
// do not interfere, so neither row holds the other: each neighbor r
// of b either gains a in b's place or, already adjacent to a, loses
// one neighbor.
func (g *graph) merge(a, b ir.Reg) {
	g.alias[b] = a
	arow, brow := g.row(a), g.row(b)
	aw, abit := int(a)/64, uint64(1)<<(uint(a)%64)
	bw, bbit := int(b)/64, uint64(1)<<(uint(b)%64)
	for i, w := range brow {
		shared, gained := w&arow[i], w&^arow[i]
		arow[i] |= gained
		g.deg[a] += int32(bits.OnesCount64(gained))
		for ; shared != 0; shared &= shared - 1 {
			r := i*64 + bits.TrailingZeros64(shared)
			g.deg[r]--
			g.adj[r*g.w+bw] &^= bbit
		}
		for ; gained != 0; gained &= gained - 1 {
			row := g.row(ir.Reg(i*64 + bits.TrailingZeros64(gained)))
			row[aw] |= abit
			row[bw] &^= bbit
		}
	}
	clear(brow)
	g.deg[b] = 0
	g.isParam[a] = g.isParam[a] || g.isParam[b]
	g.cost[a] += g.cost[b]
}

// color runs simplify/select with optimistic spilling; it returns the
// color assignment (indexed by representative, -1 = spilled/absent)
// and the registers that must spill. Classes containing a spill
// temporary (a register numbered firstTemp or above) are chosen as
// spill candidates only when nothing else is available. The colors
// live in g's scratch storage, valid until the next round's build.
func color(g *graph, k int, firstTemp ir.Reg) ([]int, []ir.Reg) {
	noSpillRep := g.sc.bitset(g.n)
	for r := firstTemp; int(r) < g.n; r++ {
		noSpillRep.add(g.find(r))
	}
	reps := usedReps(g)

	// Coalescing leaves every row holding only representatives of
	// registers fn defines or uses, never the row's own register
	// (TestCoalescedRowsHoldUsedRepresentatives), so simplify and
	// select read the graph's rows in place. Only the degrees, which
	// simplify counts down, are copied, along with the set of
	// remaining nodes whose degree is below k.
	deg := resize(&g.sc.colorDeg, g.n)
	low := g.sc.bitset(g.n)
	for i, w := range reps {
		for ; w != 0; w &= w - 1 {
			r := i*64 + bits.TrailingZeros64(w)
			deg[r] = int(g.deg[r])
			if deg[r] < k {
				low.add(ir.Reg(r))
			}
		}
	}

	removed := g.sc.bitset(g.n)
	stack := g.sc.stack[:0]
	for remaining := reps.count(); remaining > 0; remaining-- {
		// Pick a trivially colorable node (lowest-numbered first);
		// otherwise the cheapest spill candidate (optimistically
		// pushed).
		pick := low.first()
		if pick == ir.RegInvalid {
			pick = spillCandidate(g, reps, removed, noSpillRep, deg)
		}
		low.del(pick)
		removed.add(pick)
		stack = append(stack, pick)
		for i, w := range g.row(pick) {
			for w &^= removed[i]; w != 0; w &= w - 1 {
				n := i*64 + bits.TrailingZeros64(w)
				if deg[n]--; deg[n] == k-1 {
					low.add(ir.Reg(n))
				}
			}
		}
	}

	g.sc.stack = stack
	colors := resize(&g.sc.colors, g.n)
	for i := range colors {
		colors[i] = -1
	}
	// Select takes each node's lowest color that no colored neighbor
	// holds, from a k-bit mask of the colors in use.
	used := g.sc.bitset(k)
	colored := g.sc.bitset(g.n)
	var spills []ir.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		clear(used)
		for j, w := range g.row(r) {
			for w &= colored[j]; w != 0; w &= w - 1 {
				c := uint(colors[j*64+bits.TrailingZeros64(w)])
				used[c/64] |= 1 << (c % 64)
			}
		}
		c := k
		for j, w := range used {
			if w != ^uint64(0) {
				c = j*64 + bits.TrailingZeros64(^w)
				break
			}
		}
		if c >= k {
			spills = append(spills, r)
			continue
		}
		colors[r] = c
		colored.add(r)
	}
	return colors, spills
}

// usedReps is the set of representatives of the registers fn defines
// or uses, its parameters included.
func usedReps(g *graph) bitset {
	reps := g.sc.bitset(g.n)
	for i, w := range g.used {
		for ; w != 0; w &= w - 1 {
			reps.add(g.find(ir.Reg(i*64 + bits.TrailingZeros64(w))))
		}
	}
	return reps
}

// spillCandidate picks the remaining node with the lowest spill cost
// per degree, ties going to the lowest-numbered one, preferring nodes
// outside noSpillRep. It runs only when every remaining node has
// degree k or more.
func spillCandidate(g *graph, reps, removed, noSpillRep bitset, deg []int) ir.Reg {
	pickSpill, pickLast := ir.RegInvalid, ir.RegInvalid
	bestCost, lastCost := 0.0, 0.0
	for i, w := range reps {
		for w &^= removed[i]; w != 0; w &= w - 1 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			c := g.cost[r] / float64(deg[r]+1)
			if noSpillRep.has(r) {
				if pickLast == ir.RegInvalid || c < lastCost {
					pickLast, lastCost = r, c
				}
				continue
			}
			if pickSpill == ir.RegInvalid || c < bestCost {
				pickSpill, bestCost = r, c
			}
		}
	}
	if pickSpill != ir.RegInvalid {
		return pickSpill
	}
	return pickLast
}

// rewrite renames every register to its color and drops copies whose
// ends received the same color. It returns the number of copies
// removed.
func rewrite(fn *ir.Func, g *graph, colors []int) int {
	rename := func(r ir.Reg) ir.Reg {
		if r == ir.RegInvalid {
			return r
		}
		c := colors[g.find(r)]
		if c < 0 {
			// Dead register (never used): park it in color 0.
			return 0
		}
		return ir.Reg(c)
	}
	removedCopies := 0
	maxColor := 0
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
	}
	for _, b := range fn.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			in := b.Instrs[i]
			// Uses first, positionally: renaming by value would
			// collide once colors overlap old virtual numbers.
			in.MapUses(rename)
			if d := in.Def(); d != ir.RegInvalid {
				in.Dst = rename(d)
			}
			if in.Op == ir.OpCopy && in.Dst == in.A {
				removedCopies++
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range fn.Params {
		fn.Params[i] = rename(p)
	}
	fn.NumRegs = maxColor + 1
	return removedCopies
}

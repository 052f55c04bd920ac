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
// Adjacency is a dense bit matrix: row r holds one bit per interfering
// register. The rows are kept clean — they only ever contain current
// union-find representatives, because every merge eagerly rewrites the
// rows that mention the dying node — and deg[r] is maintained beside
// them as row r's popcount, so a node's degree is one array read.
type graph struct {
	n     int
	adj   []bitset // lazily allocated rows, each n bits
	deg   []int32  // deg[r] = number of bits set in adj[r]
	alias []ir.Reg // union-find parent (self when representative)
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

func (g *graph) interferes(a, b ir.Reg) bool {
	a, b = g.find(a), g.find(b)
	if a == b {
		return false
	}
	return g.adj[a] != nil && g.adj[a].has(b)
}

func (g *graph) row(r ir.Reg) bitset {
	if g.adj[r] == nil {
		g.adj[r] = g.sc.bitset(g.n)
	}
	return g.adj[r]
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
}

// addEdges makes d interfere with every member of live but itself,
// a word at a time. It runs before any coalescing, while every
// register is its own representative.
func (g *graph) addEdges(d ir.Reg, live bitset) {
	dw, dbit := int(d)/64, uint64(1)<<(uint(d)%64)
	for i, w := range live {
		if i == dw {
			w &^= dbit
		}
		if w == 0 {
			continue
		}
		row := g.row(d)
		if w &^= row[i]; w == 0 {
			continue
		}
		row[i] |= w
		g.deg[d] += int32(bits.OnesCount64(w))
		for ; w != 0; w &= w - 1 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			g.row(r)[dw] |= dbit
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
	for round := 0; ; round++ {
		if round > 100 {
			return stats, fmt.Errorf("regalloc: %s did not converge after %d rounds (K=%d)", fn.Name, round, k)
		}
		stats.Rounds = round + 1
		// The previous round's graph is dead once its spills are in.
		sc.reset()
		g := build(fn, sc)
		if g.maxLive > stats.MaxLive {
			stats.MaxLive = g.maxLive
		}
		stats.Coalesced += coalesce(g, k)
		colors, spills := color(g, fn, k, firstTemp)
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

// build constructs the interference graph in sc's storage.
func build(fn *ir.Func, sc *scratch) *graph {
	// Loop depths weight spill costs; dominator/loop discovery must
	// not mutate the CFG here because the liveness arrays are
	// indexed by block id.
	fn.RemoveUnreachable()
	dom := cfg.Dominators(fn)
	forest := cfg.FindLoops(fn, dom)
	lv := computeLiveness(fn, sc)
	n := fn.NumRegs
	g := &graph{
		sc:      sc,
		n:       n,
		adj:     resize(&sc.adj, n),
		deg:     resize(&sc.deg, n),
		alias:   resize(&sc.alias, n),
		cost:    resize(&sc.cost, n),
		isParam: resize(&sc.isParam, n),
		remat:   resize(&sc.remat, n),
		defs:    resize(&sc.defs, n),
	}
	for i := range g.alias {
		g.alias[i] = ir.Reg(i)
	}
	for _, p := range fn.Params {
		g.isParam[p] = true
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
			switch in.Op {
			case ir.OpLoadI, ir.OpLoadF, ir.OpAddrOf:
				g.remat[d] = in
			}
		}
	}

	var buf [8]ir.Reg
	live := sc.bitset(n)
	for _, b := range fn.Blocks {
		weight := 1.0
		for d := forest.Depth(b); d > 0 && weight < 1e6; d-- {
			weight *= 10
		}
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
	return g
}

// degreeOf counts r's distinct live neighbors. Rows hold only current
// representatives (merges rewrite them eagerly), so the degree is the
// row's popcount, which deg keeps up to date.
func (g *graph) degreeOf(r ir.Reg) int {
	return int(g.deg[g.find(r)])
}

// canCoalesce applies the Briggs test (combined node has fewer than K
// neighbors of significant degree) and falls back to the George test
// (every neighbor of b either already interferes with a or is
// insignificant), either of which guarantees coalescing cannot turn a
// colorable graph uncolorable.
func (g *graph) canCoalesce(a, b ir.Reg, k int) bool {
	// Briggs, over the union of both neighborhoods.
	high := 0
	ra, rb := g.adj[a], g.adj[b]
	nw := 0
	if ra != nil {
		nw = len(ra)
	}
	if rb != nil && len(rb) > nw {
		nw = len(rb)
	}
	for i := 0; i < nw; i++ {
		var w uint64
		if ra != nil {
			w = ra[i]
		}
		if rb != nil {
			w |= rb[i]
		}
		for w != 0 {
			r := ir.Reg(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if r == a || r == b {
				continue
			}
			if g.degreeOf(r) >= k {
				high++
			}
		}
	}
	if high < k {
		return true
	}
	// George, both orientations.
	george := func(x, y ir.Reg) bool {
		ok := true
		if g.adj[y] == nil {
			return true
		}
		xrow := g.adj[x]
		g.adj[y].forEach(func(r ir.Reg) {
			if !ok || r == x {
				return
			}
			if g.degreeOf(r) < k || (xrow != nil && xrow.has(r)) {
				return
			}
			ok = false
		})
		return ok
	}
	return george(a, b) || george(b, a)
}

// coalesce merges non-interfering move ends when a conservative test
// (Briggs or George) proves the merge safe.
func coalesce(g *graph, k int) int {
	merged := 0
	for changed := true; changed; {
		changed = false
		for _, mv := range g.moves {
			a, b := g.find(mv[0]), g.find(mv[1])
			if a == b {
				continue
			}
			if g.interferes(a, b) {
				continue
			}
			// Never merge two parameter registers: each receives a
			// distinct argument at entry.
			if g.isParam[a] && g.isParam[b] {
				continue
			}
			if !g.canCoalesce(a, b, k) {
				continue
			}
			// Merge b into a, eagerly rewriting every row that
			// mentions b so rows keep holding representatives only.
			// a and b do not interfere, so neither row holds the
			// other: each neighbor r of b either gains a in b's
			// place or, already adjacent to a, loses one neighbor.
			g.alias[b] = a
			arow := g.row(a)
			if g.adj[b] != nil {
				g.adj[b].forEach(func(r ir.Reg) {
					if arow.has(r) {
						g.deg[r]--
					} else {
						arow.add(r)
						g.deg[a]++
						g.adj[r].add(a)
					}
					g.adj[r].del(b)
				})
				g.adj[b] = nil
				g.deg[b] = 0
			}
			g.isParam[a] = g.isParam[a] || g.isParam[b]
			g.cost[a] += g.cost[b]
			merged++
			changed = true
		}
	}
	return merged
}

// color runs simplify/select with optimistic spilling; it returns the
// color assignment (indexed by representative, -1 = spilled/absent)
// and the registers that must spill. Classes containing a spill
// temporary (a register numbered firstTemp or above) are chosen as
// spill candidates only when nothing else is available. The colors
// live in g's scratch storage, valid until the next round's build.
func color(g *graph, fn *ir.Func, k int, firstTemp ir.Reg) ([]int, []ir.Reg) {
	noSpillRep := g.sc.bitset(g.n)
	for r := firstTemp; int(r) < g.n; r++ {
		noSpillRep.add(g.find(r))
	}
	reps := usedReps(g, fn)
	repList := g.sc.reps[:0]
	reps.forEach(func(r ir.Reg) { repList = append(repList, r) })
	g.sc.reps = repList

	// Coalescing leaves every row holding only representatives of
	// registers fn defines or uses, never the row's own register
	// (TestCoalescedRowsHoldUsedRepresentatives), so simplify and
	// select read the graph's rows in place. Only the
	// degrees, which simplify counts down, are copied, along with the
	// set of remaining nodes whose degree is below k.
	adj := g.adj
	deg := resize(&g.sc.colorDeg, g.n)
	low := g.sc.bitset(g.n)
	for _, r := range repList {
		deg[r] = int(g.deg[r])
		if deg[r] < k {
			low.add(r)
		}
	}

	removed := g.sc.bitset(g.n)
	stack := g.sc.stack[:0]
	for remaining := len(repList); remaining > 0; remaining-- {
		// Pick a trivially colorable node (lowest-numbered first);
		// otherwise the cheapest spill candidate (optimistically
		// pushed).
		pick := low.first()
		if pick == ir.RegInvalid {
			pick = spillCandidate(g, repList, removed, noSpillRep, deg)
		}
		low.del(pick)
		removed.add(pick)
		stack = append(stack, pick)
		for i, w := range adj[pick] {
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
	used := make([]bool, k)
	var spills []ir.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		for j := range used {
			used[j] = false
		}
		adj[r].forEach(func(n ir.Reg) {
			if c := colors[n]; c >= 0 {
				used[c] = true
			}
		})
		c := -1
		for j := 0; j < k; j++ {
			if !used[j] {
				c = j
				break
			}
		}
		if c == -1 {
			spills = append(spills, r)
			continue
		}
		colors[r] = c
	}
	return colors, spills
}

// usedReps is the set of representatives of the registers fn defines
// or uses, its parameters included.
func usedReps(g *graph, fn *ir.Func) bitset {
	reps := g.sc.bitset(g.n)
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

// spillCandidate picks the remaining node with the lowest spill cost
// per degree, ties going to the lowest-numbered one, preferring nodes
// outside noSpillRep. It runs only when every remaining node has
// degree k or more.
func spillCandidate(g *graph, repList []ir.Reg, removed, noSpillRep bitset, deg []int) ir.Reg {
	pickSpill, pickLast := ir.RegInvalid, ir.RegInvalid
	bestCost, lastCost := 0.0, 0.0
	for _, r := range repList {
		if removed.has(r) {
			continue
		}
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

package cfg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/cfg"
	"regpromo/internal/driver"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

// The tests in this file hold the dense dominator tree and loop forest
// to naive oracles: an idom-chain walk for Dominates, the iterative
// dominator algorithm for the idoms, recursive depth-first walks for
// the orders, and a loop forest built from back edges with maps.

// oracleConfigs are the two IL shapes the oracle tests normalize: the
// straight lowering, and the paper's full middle end before
// allocation.
var oracleConfigs = []driver.NamedConfig{
	{Name: "noopt", Config: driver.Config{Analysis: driver.ModRef, DisableOpt: true, NoAlloc: true}},
	{Name: "promote-pointer", Config: driver.Config{Analysis: driver.PointsTo, Promote: true, PointerPromote: true, NoAlloc: true}},
}

// oraclePrograms returns the suite programs and testgen seeds 1-40.
func oraclePrograms() (names, srcs []string) {
	for _, p := range bench.Suite() {
		names = append(names, "suite/"+p.Name)
		srcs = append(srcs, bench.Source(p))
	}
	for seed := int64(1); seed <= 40; seed++ {
		names = append(names, "testgen/"+strconv.FormatInt(seed, 10))
		srcs = append(srcs, testgen.Program(seed))
	}
	return names, srcs
}

func TestCFGFactsMatchOracles(t *testing.T) {
	names, srcs := oraclePrograms()
	funcs, loops := 0, 0
	for i, name := range names {
		fe, err := driver.ParseSource(name+".c", srcs[i])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, nc := range oracleConfigs {
			c, err := fe.Compile(nc.Config, nil)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, nc.Name, err)
			}
			for _, fn := range c.Module.FuncsInOrder() {
				label := fmt.Sprintf("%s %s %s", name, nc.Name, fn.Name)
				loops += checkFacts(t, label, fn)
				funcs++
			}
		}
	}
	if loops == 0 {
		t.Fatal("no loops checked")
	}
	t.Logf("%d functions, %d loops", funcs, loops)
}

// TestCFGFactsMatchOraclesRandom runs the same oracles over random
// graphs, irreducible ones included.
func TestCFGFactsMatchOraclesRandom(t *testing.T) {
	loops := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		fn := &ir.Func{Name: "r" + strconv.FormatInt(seed, 10)}
		blocks := make([]*ir.Block, n)
		for i := range blocks {
			blocks[i] = fn.NewBlock("")
		}
		fn.Entry = blocks[0]
		cond := fn.NewReg()
		for i, b := range blocks {
			k := 1 + rng.Intn(2)
			if i == n-1 || rng.Intn(8) == 0 {
				k = 0
			}
			var succs []*ir.Block
			for len(succs) < k {
				s := blocks[rng.Intn(n)]
				if len(succs) == 1 && succs[0] == s {
					break
				}
				succs = append(succs, s)
			}
			switch len(succs) {
			case 0:
				b.Instrs = []ir.Instr{{Op: ir.OpRet, A: ir.RegInvalid}}
			case 1:
				b.Instrs = []ir.Instr{{Op: ir.OpBr}}
			default:
				b.Instrs = []ir.Instr{{Op: ir.OpCBr, A: cond}}
			}
			for _, s := range succs {
				ir.AddEdge(b, s)
			}
		}
		loops += checkFacts(t, fn.Name, fn)
	}
	if loops == 0 {
		t.Fatal("no loops checked")
	}
}

// checkFacts normalizes fn and compares its dominator tree and loop
// forest with the oracles. It returns the number of loops checked.
func checkFacts(t *testing.T, label string, fn *ir.Func) int {
	t.Helper()
	dom, forest := cfg.Normalize(fn)
	idom := cfg.IterativeDominators(fn)
	blocks := fn.Blocks

	// Recursive depth-first walk: preorder numbers and postorder.
	dfn := map[*ir.Block]int{}
	var post []*ir.Block
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		dfn[b] = len(dfn)
		for _, s := range b.Succs {
			if _, ok := dfn[s]; !ok {
				walk(s)
			}
		}
		post = append(post, b)
	}
	walk(fn.Entry)
	slices.Reverse(post)
	if !slices.Equal(dom.ReversePostorder(), post) {
		t.Fatalf("%s: reverse postorder %v, want %v", label, dom.ReversePostorder(), post)
	}

	chain := func(a, b *ir.Block) bool {
		for x := b; x != nil; x = dom.Idom(x) {
			if x == a {
				return true
			}
		}
		return false
	}
	for _, b := range blocks {
		if got, want := dom.Idom(b), idom[b]; got != want {
			t.Fatalf("%s: idom(%s) = %v, iterative %v", label, b.Label, got, want)
		}
		var kids []*ir.Block
		for _, c := range blocks {
			if dom.Idom(c) == b {
				kids = append(kids, c)
			}
		}
		slices.SortFunc(kids, func(x, y *ir.Block) int { return dfn[x] - dfn[y] })
		if !slices.Equal(dom.Children(b), kids) {
			t.Fatalf("%s: children(%s) = %v, want %v", label, b.Label, dom.Children(b), kids)
		}
		for _, a := range blocks {
			if got, want := dom.Dominates(a, b), chain(a, b); got != want {
				t.Fatalf("%s: Dominates(%s, %s) = %v, idom chain says %v", label, a.Label, b.Label, got, want)
			}
		}
	}

	want := naiveLoops(t, label, fn, idom)
	if len(forest.Loops) != len(want) {
		t.Fatalf("%s: %d loops, want %d", label, len(forest.Loops), len(want))
	}
	header := func(l *cfg.Loop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	headers := func(ls []*cfg.Loop) []*ir.Block {
		var out []*ir.Block
		for _, l := range ls {
			out = append(out, l.Header)
		}
		return out
	}
	var roots []*ir.Block
	for i, l := range forest.Loops {
		w := want[i]
		switch {
		case l.Header != w.header:
			t.Fatalf("%s: loop %d headed by %s, want %s", label, i, l.Header.Label, w.header.Label)
		case !slices.Equal(l.Blocks, w.blocks):
			t.Fatalf("%s: loop %s blocks %v, want %v", label, l.Header.Label, l.Blocks, w.blocks)
		case header(l.Parent) != w.parentHeader():
			t.Fatalf("%s: loop %s parent %v, want %v", label, l.Header.Label, header(l.Parent), w.parentHeader())
		case l.Depth != w.depth:
			t.Fatalf("%s: loop %s depth %d, want %d", label, l.Header.Label, l.Depth, w.depth)
		case !slices.Equal(l.Exits, w.exits):
			t.Fatalf("%s: loop %s exits %v, want %v", label, l.Header.Label, l.Exits, w.exits)
		case !slices.Equal(headers(l.Children), w.children):
			t.Fatalf("%s: loop %s children %v, want %v", label, l.Header.Label, headers(l.Children), w.children)
		case forest.ByHeader[l.Header.ID] != l:
			t.Fatalf("%s: ByHeader misses loop %s", label, l.Header.Label)
		}
		for _, b := range blocks {
			if l.Contains(b) != w.body[b] {
				t.Fatalf("%s: loop %s Contains(%s) = %v", label, l.Header.Label, b.Label, l.Contains(b))
			}
		}
		if w.parent == nil {
			roots = append(roots, w.header)
		}
	}
	if !slices.Equal(headers(forest.Roots), roots) {
		t.Fatalf("%s: roots %v, want %v", label, headers(forest.Roots), roots)
	}
	for _, b := range blocks {
		var inner *naiveLoop
		for _, w := range want {
			if w.body[b] {
				inner = w // sorted big to small: the last one is innermost
			}
		}
		wantHeader := (*ir.Block)(nil)
		depth := 0
		if inner != nil {
			wantHeader, depth = inner.header, inner.depth
		}
		if got := header(forest.InnermostOf[b.ID]); got != wantHeader {
			t.Fatalf("%s: InnermostOf(%s) = %v, want %v", label, b.Label, got, wantHeader)
		}
		if forest.Depth(b) != depth {
			t.Fatalf("%s: Depth(%s) = %d, want %d", label, b.Label, forest.Depth(b), depth)
		}
		isHeader := forest.ByHeader[b.ID] != nil
		if _, ok := wantHeaders(want)[b]; ok != isHeader {
			t.Fatalf("%s: ByHeader(%s) set = %v", label, b.Label, isHeader)
		}
	}
	return len(want)
}

type naiveLoop struct {
	header   *ir.Block
	body     map[*ir.Block]bool
	blocks   []*ir.Block // body by id
	parent   *naiveLoop
	depth    int
	exits    []*ir.Block
	children []*ir.Block // headers, in loop order
}

func (l *naiveLoop) parentHeader() *ir.Block {
	if l.parent == nil {
		return nil
	}
	return l.parent.header
}

func wantHeaders(ls []*naiveLoop) map[*ir.Block]bool {
	out := map[*ir.Block]bool{}
	for _, l := range ls {
		out[l.header] = true
	}
	return out
}

// naiveLoops builds the loop forest from back edges, with dominance
// taken from the iterative idoms, and orders it by size descending,
// then header id.
func naiveLoops(t *testing.T, label string, fn *ir.Func, idom map[*ir.Block]*ir.Block) []*naiveLoop {
	t.Helper()
	dominates := func(a, b *ir.Block) bool {
		for x := b; x != nil; x = idom[x] {
			if x == a {
				return true
			}
		}
		return false
	}
	byHeader := map[*ir.Block]*naiveLoop{}
	var loops []*naiveLoop
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if !dominates(s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &naiveLoop{header: s, body: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			work := []*ir.Block{b}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if l.body[x] {
					continue
				}
				l.body[x] = true
				work = append(work, x.Preds...)
			}
		}
	}
	byID := func(x, y *ir.Block) int { return int(x.ID) - int(y.ID) }
	for _, l := range loops {
		for b := range l.body {
			l.blocks = append(l.blocks, b)
		}
		slices.SortFunc(l.blocks, byID)
		seen := map[*ir.Block]bool{}
		for _, b := range l.blocks {
			for _, s := range b.Succs {
				if !l.body[s] && !seen[s] {
					seen[s] = true
					l.exits = append(l.exits, s)
				}
			}
		}
		slices.SortFunc(l.exits, byID)
	}
	slices.SortFunc(loops, func(x, y *naiveLoop) int {
		if len(x.body) != len(y.body) {
			return len(y.body) - len(x.body)
		}
		return int(x.header.ID) - int(y.header.ID)
	})
	// The parent is the smallest other loop holding the header; a tie
	// would leave it ambiguous.
	for _, l := range loops {
		for _, c := range loops {
			if c == l || !c.body[l.header] {
				continue
			}
			if l.parent == nil || len(c.body) < len(l.parent.body) {
				l.parent = c
			} else if len(c.body) == len(l.parent.body) {
				t.Fatalf("%s: two smallest loops hold header %s", label, l.header.Label)
			}
		}
	}
	var depth func(l *naiveLoop) int
	depth = func(l *naiveLoop) int {
		if l.parent == nil {
			return 1
		}
		return depth(l.parent) + 1
	}
	for _, l := range loops {
		l.depth = depth(l)
		if l.parent != nil {
			l.parent.children = append(l.parent.children, l.header)
		}
	}
	return loops
}

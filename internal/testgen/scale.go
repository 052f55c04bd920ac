// Scale-profile generation: deterministic ~1000-function modules for
// the incremental-analysis bench tier. Where Program targets breadth
// of language features in a few dozen lines, Scale targets *shape* at
// scale — deep call chains through clustered helpers, shared globals,
// pointer parameters threaded down the chains, address-taken locals,
// bounded self-recursion, and heap sites — the structures whose
// interprocedural analysis cost the summary cache and the points-to
// solver must absorb. A single-function edit knob regenerates the same
// module with one arithmetic constant changed, leaving the tag table
// and callgraph identical: exactly the kind of recompile the warm
// path must turn into cache hits.

package testgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// ScaleOptions selects one scale-profile module.
type ScaleOptions struct {
	// Seed drives all generation randomness.
	Seed int64

	// Funcs is the number of helper functions (default 1000). The
	// emitted source is roughly 100 lines per helper.
	Funcs int

	// Edit, when in [0, Funcs), perturbs one arithmetic constant in
	// the body of helper Edit. The edited module has an identical tag
	// table, callgraph, and function set — only that one body hash
	// changes — so it models the minimal recompile after a one-line
	// edit. Negative means no edit.
	Edit int
}

// scaleClusterSize is how many helpers share one cluster (its globals
// and its call chain).
const scaleClusterSize = 20

// scaleGlobalPtrs is how many module-wide pointer cells the profile
// declares (GP0..). Each is a global points-to merge node.
const scaleGlobalPtrs = 4

// ScaleFuncName returns the name of helper i, as emitted by Scale —
// the function ScaleOptions.Edit rewrites when it is i.
func ScaleFuncName(i int) string { return fmt.Sprintf("f%04d", i) }

// Scale emits the scale-profile program for the options. Generation
// is deterministic in (Seed, Funcs); Edit only rewrites one emitted
// constant and never perturbs the random stream, so the edited and
// unedited programs differ in exactly one line.
func Scale(o ScaleOptions) string {
	if o.Funcs <= 0 {
		o.Funcs = 1000
	}
	g := &scaleGen{
		rng:   rand.New(rand.NewSource(o.Seed)),
		funcs: o.Funcs,
		edit:  o.Edit,
	}
	return g.program()
}

type scaleGen struct {
	rng   *rand.Rand
	funcs int
	edit  int
	sb    strings.Builder
}

func (g *scaleGen) pick(n int) int { return g.rng.Intn(n) }

// clusterOf returns the cluster index and the in-cluster position of
// helper i.
func clusterOf(i int) (ci, j int) { return i / scaleClusterSize, i % scaleClusterSize }

func (g *scaleGen) numClusters() int {
	return (g.funcs + scaleClusterSize - 1) / scaleClusterSize
}

// hasPtr reports whether helper i takes an int* first parameter.
// Two in three do: the profile is deliberately pointer-dense so the
// cold points-to fixpoint has real work for the warm path to skip.
func hasPtr(i int) bool { _, j := clusterOf(i); return j%3 != 0 }

func (g *scaleGen) program() string {
	// Shared module globals: every cluster reads and writes these, so
	// MOD/REF summaries are non-trivial all the way up the callgraph.
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&g.sb, "int G%d = %d;\n", i, g.pick(100))
	}
	// fuel bounds the total dynamic call count: the static call DAG is
	// ~Funcs deep with cross edges, and every helper burns one unit
	// and stops calling when the tank is empty, so execution stays
	// small no matter how the static structure grows.
	g.sb.WriteString("int fuel;\n")
	// Module-wide pointer cells: every pointer function stores its
	// accumulated pointer into one and loads another back, so each cell
	// is a points-to merge node joining tags from the whole module.
	// These are what give the cold fixpoint real interprocedural work —
	// a single function's contribution re-queues every reader.
	for i := 0; i < scaleGlobalPtrs; i++ {
		fmt.Fprintf(&g.sb, "int *GP%d;\n", i)
	}
	for ci := 0; ci < g.numClusters(); ci++ {
		fmt.Fprintf(&g.sb, "int c%dg0 = %d;\nint c%dg1 = %d;\nint c%dg2 = %d;\n",
			ci, g.pick(64), ci, g.pick(64), ci, g.pick(64))
		fmt.Fprintf(&g.sb, "int c%darr[16];\n", ci)
		// Per-cluster pointer cell: a merge node local to the cluster's
		// chain.
		fmt.Fprintf(&g.sb, "int *c%dgp;\n", ci)
	}
	g.sb.WriteString("\n")
	for i := 0; i < g.funcs; i++ {
		g.emitScaleFunc(i)
	}
	g.emitScaleMain()
	return g.sb.String()
}

func (g *scaleGen) emitScaleFunc(i int) {
	ci, j := clusterOf(i)
	name := ScaleFuncName(i)
	ptr := hasPtr(i)
	cg := func(k int) string { return fmt.Sprintf("c%dg%d", ci, k) }
	arr := fmt.Sprintf("c%darr", ci)

	if ptr {
		fmt.Fprintf(&g.sb, "int %s(int *p, int n) {\n", name)
	} else {
		fmt.Fprintf(&g.sb, "int %s(int n) {\n", name)
	}
	g.sb.WriteString("\tint v;\n\tint w;\n\tint x;\n\tint t;\n")
	if ptr {
		// The locs are address-taken: their tags join the points-to
		// sets flowing down the cluster's call chain and into the
		// module's pointer cells.
		g.sb.WriteString("\tint loc0;\n\tint loc1;\n\tint loc2;\n\tint *q;\n\tint *r;\n")
	}

	// The edit knob: the one line ScaleOptions.Edit rewrites.
	k := g.pick(1024)
	if i == g.edit {
		k++
	}
	fmt.Fprintf(&g.sb, "\tv = (n + %d) & 4095;\n", k)
	g.sb.WriteString("\tw = v ^ 3;\n\tx = n & 255;\n")

	if ptr {
		g.sb.WriteString("\tloc0 = v & 63;\n\tloc1 = w & 63;\n\tloc2 = x & 63;\n")
		g.sb.WriteString("\t*p = (*p + v) & 8191;\n")
		g.sb.WriteString("\tv = (v + *p) & 4095;\n")
		// q points to either the caller's target set or a local, so
		// the sets threaded to callees keep growing down the chain.
		g.sb.WriteString("\tif (n & 1) { q = p; } else { q = &loc0; }\n")
		g.sb.WriteString("\tif (n & 2) { q = &loc1; }\n")
		g.sb.WriteString("\t*q = (*q + w) & 8191;\n")
		// Publish the accumulated pointer into the cluster's and the
		// module's merge cells: every storer's contribution re-queues
		// every reader, which is where the cold fixpoint's
		// interprocedural iteration comes from.
		fmt.Fprintf(&g.sb, "\tif (n & 4) { c%dgp = q; } else { c%dgp = &loc2; }\n", ci, ci)
		fmt.Fprintf(&g.sb, "\tif (n & 8) { GP%d = q; } else { GP%d = &%s; }\n",
			g.pick(scaleGlobalPtrs), g.pick(scaleGlobalPtrs), cg(g.pick(3)))
		// Loads back through the cells. n stays small at run time, so
		// these derefs never execute (a cell may hold a dead frame's
		// local) — but they are statically live, and their target sets
		// span everything the module ever published.
		fmt.Fprintf(&g.sb, "\tif (n > 9999) { r = c%dgp; *r = (*r + v) & 8191; w = (w + *r) & 4095; }\n", ci)
		if j%5 == 2 {
			// Module-wide readers are rationed: every reader of a GP
			// cell re-fires per contribution to it, so a reader in
			// every function makes the cold solve quadratic-ish in the
			// module. One in five keeps it expensive, not explosive.
			fmt.Fprintf(&g.sb, "\tif (n > 9999) { r = GP%d; *r = (*r + w) & 8191; x = (x ^ *r) & 2047; }\n",
				g.pick(scaleGlobalPtrs))
		}
	}
	if ptr && j%7 == 3 {
		g.sb.WriteString("\t{ int *hm; hm = (int *) malloc(16); *hm = v; v = (v + *hm) & 4095; free(hm); }\n")
	}

	// Arithmetic filler over cluster and shared globals: bulk for the
	// scalar passes; points-to extracts no constraint from most of it.
	nFill := 60 + g.pick(20)
	for s := 0; s < nFill; s++ {
		switch g.pick(7) {
		case 0:
			fmt.Fprintf(&g.sb, "\t%s = (%s + v * %d + G%d) & 8191;\n", cg(g.pick(3)), cg(g.pick(3)), 1+g.pick(7), g.pick(8))
		case 1:
			fmt.Fprintf(&g.sb, "\tv = (v ^ %s[(v + w) & 15]) + %s;\n", arr, cg(g.pick(3)))
		case 2:
			fmt.Fprintf(&g.sb, "\tw = (w + x * %d) & 4095;\n", 1+g.pick(9))
		case 3:
			fmt.Fprintf(&g.sb, "\tG%d = (G%d * 17 + %s) & 8191;\n", g.pick(8), g.pick(8), cg(g.pick(3)))
		case 4:
			fmt.Fprintf(&g.sb, "\t%s[(w + %d) & 15] = (v + G%d) & 1023;\n", arr, g.pick(16), g.pick(8))
		case 5:
			fmt.Fprintf(&g.sb, "\tx = (x | (v & %s)) & 2047;\n", cg(g.pick(3)))
		default:
			fmt.Fprintf(&g.sb, "\tif ((v & %d) == 0) { w = (w + %s) & 4095; } else { x = (x ^ G%d) & 2047; }\n",
				1+g.pick(7), cg(g.pick(3)), g.pick(8))
		}
	}
	fmt.Fprintf(&g.sb, "\tfor (t = 0; t < %d; t++) { v = (v + %s[t & 15]) & 4095; }\n", 2+g.pick(4), arr)

	// Call structure. Every call is guarded by fuel, which bounds the
	// dynamic call count while leaving the static DAG deep.
	if j == 1 {
		// One bounded self-recursive helper per cluster, so recursion
		// cycles (and their weak locals) exist at scale.
		var self string
		if ptr {
			self = fmt.Sprintf("%s(q, n - 1)", name)
		} else {
			self = fmt.Sprintf("%s(n - 1)", name)
		}
		fmt.Fprintf(&g.sb, "\tif (n > 0 && fuel > 0) { fuel -= 1; v = (v + %s) & 4095; }\n", self)
	}
	if j > 0 {
		g.emitScaleCall(i, i-1, ci)
	}
	if j >= 5 && j%5 == 0 {
		g.emitScaleCall(i, i-3, ci)
	}
	if j == 0 && ci > 0 {
		// Cross-cluster edge: the chain of cluster ci hands off to the
		// root of cluster ci-1, so the whole module is one deep DAG.
		g.emitScaleCall(i, ci*scaleClusterSize-1, ci)
	}
	g.sb.WriteString("\treturn (v + w + x) & 255;\n}\n\n")
}

// emitScaleCall emits a fuel-guarded call from helper i to helper
// callee (callee < i, so it is already defined).
func (g *scaleGen) emitScaleCall(i, callee, ci int) {
	var arg string
	if hasPtr(callee) {
		if hasPtr(i) {
			// Forward q: the callee sees everything p may target plus
			// this frame's loc.
			arg = "q, "
		} else {
			arg = fmt.Sprintf("&c%dg%d, ", ci, g.pick(3))
		}
	}
	fmt.Fprintf(&g.sb, "\tif (fuel > 0) { fuel -= 1; v = (v + %s(%sv & 255)) & 4095; }\n",
		ScaleFuncName(callee), arg)
}

func (g *scaleGen) emitScaleMain() {
	g.sb.WriteString("int main(void) {\n\tint i;\n\tint check;\n")
	fmt.Fprintf(&g.sb, "\tfuel = %d;\n", 4*g.funcs)
	for ci := 0; ci < g.numClusters(); ci++ {
		fmt.Fprintf(&g.sb, "\tfor (i = 0; i < 16; i++) c%darr[i] = i * %d + 1;\n", ci, 2+ci%5)
	}
	g.sb.WriteString("\tcheck = 0;\n")
	// Drive the top cluster's root (which chains through every
	// cluster until the fuel runs out) plus each cluster root
	// directly, so all clusters execute even with small fuel.
	for ci := g.numClusters() - 1; ci >= 0; ci-- {
		root := ci*scaleClusterSize + scaleClusterSize - 1
		if root >= g.funcs {
			root = g.funcs - 1
		}
		var arg string
		if hasPtr(root) {
			arg = fmt.Sprintf("&c%dg0, ", ci)
		}
		fmt.Fprintf(&g.sb, "\tcheck = (check * 31 + %s(%s%d)) & 1048575;\n",
			ScaleFuncName(root), arg, ci+1)
	}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&g.sb, "\tcheck = (check * 31 + G%d) & 1048575;\n", i)
	}
	for ci := 0; ci < g.numClusters(); ci++ {
		fmt.Fprintf(&g.sb, "\tcheck = (check * 31 + c%dg0 + c%dg1 + c%dg2) & 1048575;\n", ci, ci, ci)
		fmt.Fprintf(&g.sb, "\tfor (i = 0; i < 16; i++) check = (check * 31 + c%darr[i]) & 1048575;\n", ci)
	}
	g.sb.WriteString("\tprint_int(check);\n")
	g.sb.WriteString("\treturn check & 127;\n}\n")
}

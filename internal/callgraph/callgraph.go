// Package callgraph builds the program call graph, finds its strongly
// connected components with Tarjan's algorithm, and orders the SCCs
// reverse-topologically — the order the MOD/REF analysis processes
// them in (§4: "Processing the SCCs in reverse topological order
// ensures that the tag set of any called function not in the current
// SCC has already been calculated").
package callgraph

import (
	"sort"

	"regpromo/internal/ir"
)

// FuncID is a dense index interning one defined function, assigned in
// module function order. Analyses use it to key per-function tables as
// flat slices instead of name-keyed maps.
type FuncID int32

// FuncInvalid is returned for names that do not intern (undefined
// functions, intrinsics).
const FuncInvalid FuncID = -1

// Graph is a call graph over the module's defined functions.
type Graph struct {
	mod *ir.Module

	// Callees maps a function to the set of functions it may call
	// directly or through a function pointer. Calls to intrinsics
	// and undefined functions are not edges.
	Callees map[string][]string

	// HasIndirect marks functions containing indirect calls.
	HasIndirect map[string]bool

	// SCCs lists components in reverse topological order (callees
	// before callers). Each component lists its member function
	// names sorted.
	SCCs [][]string

	// sccOf maps a function name to its SCC index.
	sccOf map[string]int

	// ids interns defined function names in module function order;
	// names is the inverse table.
	ids   map[string]FuncID
	names []string

	// CalleeIDs mirrors Callees with interned ids: CalleeIDs[f] lists
	// the ids of the functions f may call, in Callees order. Analyses
	// iterate these instead of resolving names on hot paths.
	CalleeIDs [][]FuncID

	// SCCMemberIDs mirrors SCCs with interned ids, one slice per
	// component in the same (reverse topological) order.
	SCCMemberIDs [][]FuncID

	// sccOfID maps a FuncID to its SCC index (dense mirror of sccOf).
	sccOfID []int

	// sccSuccs lists, per SCC, the distinct callee components in
	// first-reference order — the condensation's edge list.
	sccSuccs [][]int
}

// ID returns the dense id interning name, or FuncInvalid when name is
// not a defined function.
func (g *Graph) ID(name string) FuncID {
	if id, ok := g.ids[name]; ok {
		return id
	}
	return FuncInvalid
}

// Name returns the function name interned as id.
func (g *Graph) Name(id FuncID) string { return g.names[id] }

// NumFuncs returns the number of interned (defined) functions; valid
// FuncIDs are [0, NumFuncs).
func (g *Graph) NumFuncs() int { return len(g.names) }

// Build constructs the call graph. Indirect calls conservatively
// target every addressed function (§4).
func Build(mod *ir.Module) *Graph {
	g := &Graph{
		mod:         mod,
		Callees:     make(map[string][]string),
		HasIndirect: make(map[string]bool),
		sccOf:       make(map[string]int),
		ids:         make(map[string]FuncID, len(mod.FuncOrder)),
	}
	for _, name := range mod.FuncOrder {
		g.ids[name] = FuncID(len(g.names))
		g.names = append(g.names, name)
	}
	for _, fn := range mod.FuncsInOrder() {
		seen := map[string]bool{}
		var callees []string
		addCallee := func(name string) {
			if _, defined := mod.Funcs[name]; !defined {
				return
			}
			if !seen[name] {
				seen[name] = true
				callees = append(callees, name)
			}
		}
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpJsr {
					continue
				}
				if in.Callee() != "" {
					addCallee(in.Callee())
					continue
				}
				g.HasIndirect[fn.Name] = true
				// Points-to analysis may have pinned the possible
				// targets; otherwise any addressed function.
				targets := in.Targets()
				if targets == nil {
					targets = mod.AddressedFuncs
				}
				for _, t := range targets {
					addCallee(t)
				}
			}
		}
		sort.Strings(callees)
		g.Callees[fn.Name] = callees
	}
	g.computeSCCs()
	g.buildDense()
	return g
}

// buildDense fills the id-indexed mirrors of the name-keyed tables
// once the SCCs are known.
func (g *Graph) buildDense() {
	n := len(g.names)
	g.CalleeIDs = make([][]FuncID, n)
	g.sccOfID = make([]int, n)
	for id, name := range g.names {
		g.sccOfID[id] = g.sccOf[name]
		callees := g.Callees[name]
		ids := make([]FuncID, len(callees))
		for i, c := range callees {
			ids[i] = g.ids[c]
		}
		g.CalleeIDs[id] = ids
	}
	g.SCCMemberIDs = make([][]FuncID, len(g.SCCs))
	g.sccSuccs = make([][]int, len(g.SCCs))
	for i, comp := range g.SCCs {
		members := make([]FuncID, len(comp))
		for j, name := range comp {
			members[j] = g.ids[name]
		}
		g.SCCMemberIDs[i] = members
		seen := map[int]bool{i: true}
		for _, m := range members {
			for _, c := range g.CalleeIDs[m] {
				if j := g.sccOfID[c]; !seen[j] {
					seen[j] = true
					g.sccSuccs[i] = append(g.sccSuccs[i], j)
				}
			}
		}
	}
}

// SCCSuccs returns the condensation successors of component i: the
// distinct components its members call into, in first-reference
// order. Successor indices are always smaller than i (reverse
// topological numbering). The returned slice is owned by the graph.
func (g *Graph) SCCSuccs(i int) []int { return g.sccSuccs[i] }

// SCCOf returns the index (into SCCs) of fn's component.
func (g *Graph) SCCOf(fn string) int { return g.sccOf[fn] }

// SCCOfID returns the index (into SCCs) of id's component.
func (g *Graph) SCCOfID(id FuncID) int { return g.sccOfID[id] }

// InCycle reports whether fn can (transitively) call itself: its SCC
// has more than one member, or it calls itself directly.
func (g *Graph) InCycle(fn string) bool {
	idx, ok := g.sccOf[fn]
	if !ok {
		return false
	}
	if len(g.SCCs[idx]) > 1 {
		return true
	}
	for _, c := range g.Callees[fn] {
		if c == fn {
			return true
		}
	}
	return false
}

// computeSCCs runs Tarjan's algorithm. Tarjan emits components in
// reverse topological order of the condensation (callees first),
// which is exactly the processing order MOD/REF needs.
func (g *Graph) computeSCCs() {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0

	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.Callees[v] {
			if _, visited := index[w]; !visited {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			idx := len(g.SCCs)
			for _, w := range comp {
				g.sccOf[w] = idx
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}

	for _, name := range g.mod.FuncOrder {
		if _, visited := index[name]; !visited {
			strongConnect(name)
		}
	}
}

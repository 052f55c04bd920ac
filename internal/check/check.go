// Package check is the compiler's static correctness subsystem: a
// registry of lint passes over the IL that go beyond ir.Verify's
// structural checks — use-before-def of virtual registers (a forward
// may-reach dataflow), CFG hygiene, call arity/signature discipline
// against the callgraph table, Table-1 tag discipline, and the
// promotion certificates, re-proved by the independent region
// verifier (internal/analysis/certify), whose body check also holds
// the promotion invariant: no access to a promoted location, and no
// spill code for it, survives inside its region. The driver runs the
// registry at Config.CheckLevel granularity; rpcc exposes it as
// -check/-checkall.
//
// The dynamic half of the subsystem — the analysis-soundness
// sanitizer that diffs observed MOD/REF/points-to behaviour against
// the static sets — lives in internal/interp (Options.Sanitize) and
// reports through the same ir.Diag type.
package check

import (
	"regpromo/internal/analysis/certify"
	"regpromo/internal/callgraph"
	"regpromo/internal/ir"
	"regpromo/internal/opt/promote"
)

// Diag is the canonical diagnostic type shared by the verifier, the
// lint passes, and the interpreter sanitizer. It aliases ir.Diag so
// lower layers can produce diagnostics without importing check; every
// tool prints Diag.String, so output never drifts between rpcc,
// rpexec, and rpfuzz.
type Diag = ir.Diag

// Context carries everything a lint pass may consult.
type Context struct {
	Module *ir.Module

	// AnalysisDone marks that interprocedural analysis has run:
	// every call site carries MOD/REF summaries and pointer
	// operations have had ⊤ tag sets limited to the visible set.
	// The tag-discipline lint enforces the stricter post-analysis
	// invariants only when this is set.
	AnalysisDone bool

	// Regions are the promoted regions recorded by the promote pass;
	// empty before it runs (the certificate lint is then vacuous).
	Regions []promote.Region

	// Pressure holds the static register-pressure reports the driver
	// measured after promotion (empty otherwise); the advisory
	// pressure lint reads them.
	Pressure []certify.Pressure

	graph *callgraph.Graph
}

// Graph returns the module's call graph, built on first use.
func (c *Context) Graph() *callgraph.Graph {
	if c.graph == nil {
		c.graph = callgraph.Build(c.Module)
	}
	return c.graph
}

// Pass is one registered lint pass.
type Pass struct {
	Name string
	Doc  string
	Run  func(*Context) []Diag
}

// Passes returns the registry in canonical execution order. The
// structural verifier runs first; the deeper passes assume its
// invariants (blocks terminated, registers and tags in range). The
// promotion invariant is part of certify's R2 obligation, not a pass
// of its own.
func Passes() []Pass {
	return []Pass{
		{Name: "verify", Doc: "structural well-formedness: terminators, edges, register and tag ranges", Run: func(c *Context) []Diag { return ir.VerifyModuleAll(c.Module) }},
		{Name: "cfg", Doc: "CFG hygiene: dense block ids, no unreachable blocks, ret/HasVarRet agreement", Run: runCFG},
		{Name: "uninit", Doc: "use of a virtual register that no definition may reach (forward dataflow)", Run: runUninit},
		{Name: "arity", Doc: "call arity/signature discipline against defined functions and intrinsics", Run: runArity},
		{Name: "tags", Doc: "Table-1 tag discipline: kinds, ownership, ⊤ only where the hierarchy permits", Run: runTags},
		{Name: "certify", Doc: "re-prove promotion certificates with the independent region-soundness verifier, the promotion invariant included", Run: runCertify},
	}
}

// Advisory returns the advisory passes: findings that flag likely
// performance problems rather than correctness violations, so they
// are selectable by name (rpcc -check pressure) but excluded from the
// default Module run — an over-budget promotion is legal IL.
func Advisory() []Pass {
	return []Pass{
		{Name: "pressure", Doc: "static register pressure: promotion sites whose live values exceed the K budget", Run: runPressure},
	}
}

// Named returns the registered pass — core or advisory — with the
// given name.
func Named(name string) (Pass, bool) {
	for _, p := range Passes() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range Advisory() {
		if p.Name == name {
			return p, true
		}
	}
	return Pass{}, false
}

// Names lists every selectable pass name, core registry first, in
// execution order.
func Names() []string {
	var out []string
	for _, p := range Passes() {
		out = append(out, p.Name)
	}
	for _, p := range Advisory() {
		out = append(out, p.Name)
	}
	return out
}

// Selected runs exactly the named passes in registry order (advisory
// passes after core ones), ignoring names that are not registered —
// callers validate names up front with Named. The structural
// verifier, when selected, short-circuits as in Module.
func Selected(ctx *Context, names []string) []Diag {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var ds []Diag
	for _, p := range Passes() {
		if !want[p.Name] {
			continue
		}
		out := p.Run(ctx)
		if p.Name == "verify" && len(out) > 0 {
			ir.SortDiags(out)
			return out
		}
		ds = append(ds, out...)
	}
	for _, p := range Advisory() {
		if want[p.Name] {
			ds = append(ds, p.Run(ctx)...)
		}
	}
	ir.SortDiags(ds)
	return ds
}

// Module runs every registered pass over the module and returns the
// combined diagnostics in registry order. When the structural
// verifier itself reports violations, only those are returned — the
// deeper passes would chase the same breakage (or crash on it).
func Module(ctx *Context) []Diag {
	var ds []Diag
	for i, p := range Passes() {
		out := p.Run(ctx)
		if i == 0 && len(out) > 0 {
			ds = out
			break
		}
		ds = append(ds, out...)
	}
	// Position-sort so the combined output is independent of pass
	// order and of the parallel middle end's scheduling; the stable
	// sort keeps registry order between diags at the same position.
	ir.SortDiags(ds)
	return ds
}

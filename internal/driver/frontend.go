package driver

import (
	"sync/atomic"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
	"regpromo/internal/obs"
)

// Frontend is a reusable front-end artifact: one source file parsed,
// type-checked, and lowered to IL exactly once. Every measurement
// matrix in this repository compiles the same program under several
// configurations; forking each pipeline from a module clone instead of
// re-running the front end per configuration removes the redundant
// parse+sema+irgen work from the measurement loop entirely
// (compile-once sharing). CompileMatrix goes on to run the pass
// prefixes the configurations share once.
//
// A Frontend is immutable after construction: Compile and
// CompileMatrix hand every configuration its own deep copy of the
// module, so concurrent and sequential forks can never disturb each
// other.
type Frontend struct {
	// Filename is the name the source was parsed under.
	Filename string

	module *ir.Module
	clones atomic.Int64
}

// PassFrontendReuse is the record name of the fork-from-artifact
// stage that replaces a repeated front-end run under compile-once
// sharing. Its record carries Extra{"reused": 1, "clones": n}.
const PassFrontendReuse = "frontend.reuse"

// ParseSource runs the front end once and returns the reusable
// artifact.
func ParseSource(filename, src string) (*Frontend, error) {
	m, err := frontEnd(filename, src)
	if err != nil {
		return nil, err
	}
	return &Frontend{Filename: filename, module: m}, nil
}

// frontEnd parses, type-checks and lowers one source file to IL.
func frontEnd(filename, src string) (*ir.Module, error) {
	file, err := parser.Parse(filename, src)
	if err != nil {
		return nil, err
	}
	prog, err := sema.Check(file)
	if err != nil {
		return nil, err
	}
	return irgen.Generate(prog)
}

// NewModule forks a fresh deep copy of the artifact's module for one
// pipeline to own and mutate.
func (fe *Frontend) NewModule() *ir.Module {
	fe.clones.Add(1)
	return fe.module.Clone()
}

// Clones reports how many module copies pipelines compiled from this
// artifact have made so far: one per Compile, and one per
// configuration of a CompileMatrix call (the trie root's copy of the
// artifact plus one at each extra branch).
func (fe *Frontend) Clones() int64 { return fe.clones.Load() }

// Compile forks a pipeline from the artifact: the module is cloned
// (recorded under a tracer as "frontend.reuse" — the stage that
// replaces a repeated front-end run) and the configuration's pass list
// runs over the clone. It is CompileMatrix over one configuration.
// tr may be nil. Safe to call concurrently.
func (fe *Frontend) Compile(cfg Config, tr *obs.Tracer) (*Compilation, error) {
	cs, errs := fe.compileMatrix([]Config{cfg}, tr, allReads)
	return cs[0], errs[0]
}

// CompileMatrix compiles the artifact under every configuration of
// cfgs, running each pass that a group of configurations reaches by
// the same path once for the group. The configurations' pass lists
// form a trie keyed by pass name and the Config fields each pass reads
// (promote: PointerPromote, SkipUnwrittenStores, Throttle and K;
// regalloc: K); configurations share a trie only when their Workers,
// Check, CheckPasses and AnalysisCache agree. Each trie starts from
// one clone of the artifact's module, and every branch but the last of
// a node clones the module again, so a matrix costs as many clones as
// it has configurations. A node's branches run concurrently, up to
// Workers at once.
//
// The result holds one Compilation per configuration, in order, each
// with its own module: the IL, statistics and pass records are those
// the configuration compiled alone would produce, except that a
// shared pass is one *obs.PassEvent in every Compilation.Passes that
// ran it. A configuration that fails has a nil entry, and the error is
// then a *MatrixError. Nothing is kept between calls. tr may be nil.
// Safe to call concurrently.
func (fe *Frontend) CompileMatrix(cfgs []Config, tr *obs.Tracer) ([]*Compilation, error) {
	cs, errs := fe.compileMatrix(cfgs, tr, allReads)
	return cs, matrixError(errs)
}

// compileMatrix runs the matrix with each trie rooted at a fresh clone
// of the artifact's module.
func (fe *Frontend) compileMatrix(cfgs []Config, tr *obs.Tracer, keep readSet) ([]*Compilation, []error) {
	return compileMatrix(cfgs, tr, keep, fe, PassFrontendReuse, func(s *pipeState) error {
		sp := tr.Start(PassFrontendReuse, "pass", 0)
		s.c.Module = fe.NewModule()
		extra := map[string]int64{"reused": 1, "clones": fe.Clones()}
		s.recordModule(PassFrontendReuse, sp.AddArgs(extra).End(), extra)
		return nil
	})
}

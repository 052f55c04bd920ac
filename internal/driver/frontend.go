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
// (compile-once sharing).
//
// A Frontend is immutable after construction: Compile hands every
// configuration its own deep copy of the module, so concurrent and
// sequential forks can never disturb each other.
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

// Clones reports how many pipelines have been forked from this
// artifact so far.
func (fe *Frontend) Clones() int64 { return fe.clones.Load() }

// Compile forks a pipeline from the artifact: the module is cloned
// (recorded under a tracer as "frontend.reuse" — the stage that
// replaces a repeated front-end run) and the configuration's pass list
// runs over the clone. tr may be nil. Safe to call concurrently.
func (fe *Frontend) Compile(cfg Config, tr *obs.Tracer) (*Compilation, error) {
	if err := checkDump(tr, PassFrontendReuse, cfg); err != nil {
		return nil, err
	}
	defer tr.Start("compile", "compile", 0).End()
	sp := tr.Start(PassFrontendReuse, "pass", 0)
	s := &pipeState{cfg: cfg, c: &Compilation{Module: fe.NewModule()}, tr: tr}
	extra := map[string]int64{"reused": 1, "clones": fe.Clones()}
	s.recordModule(PassFrontendReuse, sp.AddArgs(extra).End(), extra)
	return compilePasses(s)
}

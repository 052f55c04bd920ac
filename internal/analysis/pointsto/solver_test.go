package pointsto

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"regpromo/internal/callgraph"
	"regpromo/internal/ir"
	"regpromo/internal/testgen"
)

// suitePrograms reads the benchmark suite's C sources.
func suitePrograms(tb testing.TB) map[string]string {
	tb.Helper()
	files, err := filepath.Glob("../../bench/programs/*.c")
	if err != nil || len(files) != 15 {
		tb.Fatalf("suite programs: %d files, %v", len(files), err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(f)] = string(src)
	}
	return out
}

// TestSolutionIsClosed re-applies every transfer function once to the
// solver's final sets and asserts that no set grows: the result is a
// fixpoint of the constraints, so no delta the worklist dropped and no
// complex constraint it instantiated too late can go unnoticed.
func TestSolutionIsClosed(t *testing.T) {
	srcs := suitePrograms(t)
	for seed := int64(1); seed <= 40; seed++ {
		srcs["testgen"+strconv.FormatInt(seed, 10)] = testgen.Program(seed)
	}
	for seed := int64(1); seed <= 3; seed++ {
		srcs["scale"+strconv.FormatInt(seed, 10)] = testgen.Scale(testgen.ScaleOptions{Seed: seed, Funcs: 25, Edit: -1})
	}
	// apply is never called, so its indirect call stays empty and
	// falls back to every addressed function; q = p takes the bound
	// argument one hop further.
	srcs["fallback"] = `
int gl;
int fa(int *p) { int *q; q = p; return *q; }
int apply(int (*f)(int *)) { return f(&gl); }
int main(void) { int (*h)(int *); h = fa; return 0; }
`
	for name, src := range srcs {
		m, cg := buildAnalyzed(t, src)
		res := Solve(m, cg, nil)
		if n := openConstraints(m, res.s); n > 0 {
			t.Errorf("%s: %d constraints would still grow a set", name, n)
		}
	}
}

// openConstraints counts the transfer functions whose application to
// the solved sets would add a member.
func openConstraints(m *ir.Module, s *solver) int {
	open := 0
	// flows counts a copy constraint src ⊆ dst that does not hold, over
	// both tags and functions.
	flows := func(src, dst int32) {
		a, b := s.slot[src], s.slot[dst]
		if !ir.TagSetOfWords(s.tags[a]).SubsetOf(ir.TagSetOfWords(s.tags[b])) ||
			!ir.TagSetOfWords(s.fns[a]).SubsetOf(ir.TagSetOfWords(s.fns[b])) {
			open++
		}
	}
	hasTag := func(v int32, t ir.TagID) {
		if !s.tagSet(v).Has(t) {
			open++
		}
	}
	for _, init := range m.Inits {
		for _, rel := range init.Relocs {
			hasTag(s.tagBase+int32(init.Tag), rel.Target)
		}
	}
	for i, fn := range s.funcs {
		fid := callgraph.FuncID(i)
		reg := func(r ir.Reg) int32 { return s.reg(fid, r) }
		for _, b := range fn.Blocks {
			for j := range b.Instrs {
				in := &b.Instrs[j]
				switch in.Op {
				case ir.OpAddrOf:
					if in.Callee() == "" {
						hasTag(reg(in.Dst), in.Tag)
					} else if !slices.Contains(s.targetNames(reg(in.Dst)), in.Callee()) {
						open++
					}
				case ir.OpCopy:
					flows(reg(in.A), reg(in.Dst))
				case ir.OpAdd, ir.OpSub:
					flows(reg(in.A), reg(in.Dst))
					flows(reg(in.B), reg(in.Dst))
				case ir.OpSLoad, ir.OpCLoad:
					flows(s.tagBase+int32(in.Tag), reg(in.Dst))
				case ir.OpSStore:
					flows(reg(in.A), s.tagBase+int32(in.Tag))
				case ir.OpPLoad:
					s.tagSet(reg(in.A)).ForEach(func(t ir.TagID) { flows(s.tagBase+int32(t), reg(in.Dst)) })
				case ir.OpPStore:
					s.tagSet(reg(in.A)).ForEach(func(t ir.TagID) { flows(reg(in.B), s.tagBase+int32(t)) })
				case ir.OpJsr:
					callees := []string{in.Callee()}
					if in.Callee() == "" {
						if callees = s.targetNames(reg(in.A)); callees == nil {
							callees = m.AddressedFuncs
						}
					}
					for _, name := range callees {
						cid := s.cg.ID(name)
						if cid == callgraph.FuncInvalid {
							if name == "malloc" && in.Site() != ir.TagInvalid && in.Dst != ir.RegInvalid {
								hasTag(reg(in.Dst), in.Site())
							}
							continue
						}
						params := s.funcs[cid].Params
						for k, arg := range in.Args() {
							if k < len(params) {
								flows(reg(arg), s.reg(cid, params[k]))
							}
						}
						if in.HasValue && in.Dst != ir.RegInvalid {
							flows(s.retBase+int32(cid), reg(in.Dst))
						}
					}
				case ir.OpRet:
					if in.HasValue && in.A != ir.RegInvalid {
						flows(reg(in.A), s.retBase+int32(fid))
					}
				}
			}
		}
	}
	return open
}

// BenchmarkPointsToSolve times the solver alone — constraint
// extraction, the worklist and narrowing — on the suite programs and
// on the 600-helper scale module. Every iteration solves fresh clones
// of the analyzed modules; cloning and call-graph building are off the
// clock.
func BenchmarkPointsToSolve(b *testing.B) {
	var suite []*ir.Module
	for _, src := range suitePrograms(b) {
		m, _ := buildAnalyzed(b, src)
		suite = append(suite, m)
	}
	scale, _ := buildAnalyzed(b, testgen.Scale(testgen.ScaleOptions{Seed: 1, Funcs: 600, Edit: -1}))
	for _, bc := range []struct {
		name string
		mods []*ir.Module
	}{{"suite", suite}, {"scale600", []*ir.Module{scale}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ms := make([]*ir.Module, len(bc.mods))
				cgs := make([]*callgraph.Graph, len(bc.mods))
				for j, m := range bc.mods {
					ms[j] = m.Clone()
					cgs[j] = callgraph.Build(ms[j])
				}
				b.StartTimer()
				for j := range ms {
					Solve(ms[j], cgs[j], nil)
				}
			}
		})
	}
}

package interp

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"regpromo/internal/cc/irgen"
	"regpromo/internal/cc/parser"
	"regpromo/internal/cc/sema"
	"regpromo/internal/ir"
)

// The flat engine's superinstructions (fused compare-and-branch,
// fused address-compute-and-access) only form when the pair is
// adjacent within one block; the fused form still writes the
// intermediate register and still counts as two ops. These tests pin
// both halves of that contract at the fusion boundaries — pair
// adjacent, pair split across a block edge, pair separated by an
// intervening instruction, first half as a block's final computation
// — because these are exactly the patterns the native codegen must
// reproduce bit-for-bit in counts. Every variant is cross-checked
// against the block-walking switch engine, which never fuses.

// compileIR lowers C source to an IL module without running it.
func compileIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(file)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	mod, err := irgen.Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return mod
}

// opCount tallies the flat program's static opcode mix.
func opCount(p *Program) map[flatOp]int {
	m := map[flatOp]int{}
	for i := range p.code {
		m[p.code[i].op]++
	}
	return m
}

// checkEngineParity runs the module on the flat and switch engines
// and demands identical exit, output, and dynamic counts.
func checkEngineParity(t *testing.T, mod *ir.Module) *Result {
	t.Helper()
	flat, err := Flatten(mod, false).Run(Options{})
	if err != nil {
		t.Fatalf("flat engine: %v\n%s", err, ir.FormatModule(mod))
	}
	ref, err := Run(mod, Options{Engine: EngineSwitch})
	if err != nil {
		t.Fatalf("switch engine: %v", err)
	}
	if flat.Exit != ref.Exit {
		t.Errorf("exit: flat %d, switch %d", flat.Exit, ref.Exit)
	}
	if flat.Output != ref.Output {
		t.Errorf("output: flat %q, switch %q", flat.Output, ref.Output)
	}
	if flat.Counts != ref.Counts {
		t.Errorf("counts diverge:\nflat   %+v\nswitch %+v", flat.Counts, ref.Counts)
	}
	return flat
}

// splitBefore moves b.Instrs[idx:] into a fresh block reached by an
// unconditional branch, turning an intra-block pair into a
// block-edge pair while preserving semantics.
func splitBefore(fn *ir.Func, b *ir.Block, idx int) {
	nb := fn.NewBlock("")
	nb.Instrs = append(nb.Instrs, b.Instrs[idx:]...)
	b.Instrs = b.Instrs[:idx:idx]
	nb.Succs = b.Succs
	for _, s := range nb.Succs {
		for i, p := range s.Preds {
			if p == b {
				s.Preds[i] = nb
			}
		}
	}
	b.Succs = nil
	ir.AddEdge(b, nb)
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr})
}

// findPair locates a block whose instruction at i has opcode first
// and whose instruction at i+1 has opcode second, returning the block
// and i+1 (the split point).
func findPair(t *testing.T, fn *ir.Func, first, second ir.Op) (*ir.Block, int) {
	t.Helper()
	for _, b := range fn.Blocks {
		for i := 0; i+1 < len(b.Instrs); i++ {
			if b.Instrs[i].Op == first && b.Instrs[i+1].Op == second {
				return b, i + 1
			}
		}
	}
	t.Fatalf("no %v+%v pair found in %s", first, second, fn.Name)
	return nil, 0
}

const cmpBrSrc = `
int main(void) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i++) s += i;
	if (s == 45) return 1;
	return 0;
}`

// TestFuseCmpBranchAdjacent: a compare immediately feeding the
// block's conditional branch fuses, the unfused forms disappear, and
// the fused pair still counts as two ops (switch-engine parity).
func TestFuseCmpBranchAdjacent(t *testing.T) {
	mod := compileIR(t, cmpBrSrc)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fJLT] == 0 || ops[fJEQ] == 0 {
		t.Errorf("expected fused fJLT and fJEQ, got %v", ops)
	}
	if ops[fCmpLT] != 0 || ops[fCmpEQ] != 0 || ops[fCBr] != 0 {
		t.Errorf("unfused remnants survived fusion: %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 1 {
		t.Errorf("exit = %d, want 1", res.Exit)
	}
}

// TestFuseCmpBranchBlockEdge: the same program with the loop compare
// and its branch forced into different blocks must not fuse — the
// compare ends one block, the branch opens the next — and both
// engines still agree on every count (the synthetic jump is one extra
// op on both).
func TestFuseCmpBranchBlockEdge(t *testing.T) {
	mod := compileIR(t, cmpBrSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpCmpLT, ir.OpCBr)
	splitBefore(fn, b, split)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fJLT] != 0 {
		t.Errorf("compare and branch fused across a block edge: %v", ops)
	}
	if ops[fCmpLT] == 0 || ops[fCBr] == 0 {
		t.Errorf("split pair not lowered to plain cmp+cbr: %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 1 {
		t.Errorf("exit = %d, want 1", res.Exit)
	}
}

// TestFuseCmpBranchIntervening: an instruction between the compare
// and the branch blocks fusion even within one block.
func TestFuseCmpBranchIntervening(t *testing.T) {
	mod := compileIR(t, cmpBrSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpCmpLT, ir.OpCBr)
	pad := ir.Instr{Op: ir.OpLoadI, Dst: fn.NewReg(), Imm: 7}
	b.Instrs = append(b.Instrs[:split:split], append([]ir.Instr{pad}, b.Instrs[split:]...)...)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fJLT] != 0 {
		t.Errorf("compare and branch fused across an intervening instruction: %v", ops)
	}
	if ops[fCmpLT] == 0 || ops[fCBr] == 0 {
		t.Errorf("separated pair not lowered to plain cmp+cbr: %v", ops)
	}
	checkEngineParity(t, mod)
}

// TestCmpAsFinalComputation: a compare whose result flows to ret, not
// to a branch, stays a plain compare even as the last computation of
// the function.
func TestCmpAsFinalComputation(t *testing.T) {
	mod := compileIR(t, `
int main(void) {
	int x;
	int y;
	x = 3;
	y = 9;
	return x < y;
}`)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fCmpLT] == 0 {
		t.Errorf("compare feeding ret vanished: %v", ops)
	}
	if ops[fJLT] != 0 {
		t.Errorf("compare feeding ret fused with a branch: %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 1 {
		t.Errorf("exit = %d, want 1", res.Exit)
	}
}

const addPLoadSrc = `
int a[4] = {1, 2, 3, 4};
int main(void) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 4; i++) s += a[i];
	return s;
}`

// The stored value is plain i: computing it first leaves the
// indexing add as the instruction immediately before the store,
// which is the adjacency fusion needs. (With `a[i] = i + 1` the
// value-side add lands between them and correctly blocks fusion.)
const addPStoreSrc = `
int a[4];
int main(void) {
	int i;
	for (i = 0; i < 4; i++) a[i] = i;
	return a[1] + a[3];
}`

// TestFuseAddPLoadAdjacent: the indexing add immediately feeding a
// pointer load fuses into fAddPLoad; the plain pLoad disappears.
func TestFuseAddPLoadAdjacent(t *testing.T) {
	mod := compileIR(t, addPLoadSrc)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fAddPLoad] == 0 {
		t.Errorf("expected fused fAddPLoad, got %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 10 {
		t.Errorf("exit = %d, want 10", res.Exit)
	}
}

// TestFuseAddPLoadBlockEdge: the add ending one block and the load
// opening the next must not fuse, and counts still match the
// reference engine.
func TestFuseAddPLoadBlockEdge(t *testing.T) {
	mod := compileIR(t, addPLoadSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpAdd, ir.OpPLoad)
	splitBefore(fn, b, split)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fAddPLoad] != 0 {
		t.Errorf("add and load fused across a block edge: %v", ops)
	}
	if ops[fPLoad] == 0 {
		t.Errorf("split access not lowered to plain pLoad: %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 10 {
		t.Errorf("exit = %d, want 10", res.Exit)
	}
}

// TestFuseAddPStoreAdjacent: the store-side twin of fAddPLoad.
func TestFuseAddPStoreAdjacent(t *testing.T) {
	mod := compileIR(t, addPStoreSrc)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fAddPStore] == 0 {
		t.Errorf("expected fused fAddPStore, got %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 4 {
		t.Errorf("exit = %d, want 4", res.Exit)
	}
}

// TestFuseAddPStoreBlockEdge: splitting the add from its store
// suppresses fusion without disturbing counts.
func TestFuseAddPStoreBlockEdge(t *testing.T) {
	mod := compileIR(t, addPStoreSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpAdd, ir.OpPStore)
	splitBefore(fn, b, split)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fAddPStore] != 0 {
		t.Errorf("add and store fused across a block edge: %v", ops)
	}
	if ops[fPStore] == 0 {
		t.Errorf("split access not lowered to plain pStore: %v", ops)
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 4 {
		t.Errorf("exit = %d, want 4", res.Exit)
	}
}

// TestFusedPairWritesIntermediateRegister: fusion must still write
// the compare result / computed address to its register — a later
// reader of the intermediate observes the same value either way.
func TestFusedPairWritesIntermediateRegister(t *testing.T) {
	// s collects the compare results after branching on them, so the
	// fused fJLT must still deposit 0/1 in the compare's register.
	res := checkEngineParity(t, compileIR(t, `
int main(void) {
	int i;
	int s;
	int t;
	s = 0;
	for (i = 0; i < 3; i++) {
		t = i < 2;
		if (t) s += 10;
		s += t;
	}
	return s;
}`))
	if res.Exit != 22 {
		t.Errorf("exit = %d, want 22", res.Exit)
	}
}

// foldSrc exercises all three folded-immediate forms: i + 1 and
// i * 3 read a constant loaded just before them, and x & 7 masks
// with one.
const foldSrc = `
int main(void) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 6; i = i + 1) s = s + (i * 3 & 7);
	return s;
}`

// threadSrc's loop test compares two registers, so the loop header
// opens with the fused compare-and-branch. (cmpBrSrc's header loads
// its constant bound first.)
const threadSrc = `
int main(void) {
	int i;
	int n;
	int s;
	n = 10;
	s = 0;
	for (i = 0; i < n; i++) s += i;
	return s;
}`

// TestThreadBranchIntoCmpBranch: the loop's back edge and its entry
// jump land on a fused compare-and-branch, so each fBr takes the test
// over as a threaded form; counts still match the switch engine,
// which sees br, compare and cbr as three ops.
func TestThreadBranchIntoCmpBranch(t *testing.T) {
	mod := compileIR(t, threadSrc)
	p := Flatten(mod, false)
	ops := opCount(p)
	if ops[fBrJLT] == 0 {
		t.Errorf("expected a threaded fBrJLT, got %v", ops)
	}
	for pc := range p.code {
		in := &p.code[pc]
		if in.op == fBr {
			if t2 := p.code[in.imm].op; t2 >= fJEQ && t2 <= fJFGE {
				t.Errorf("pc %d: fBr into fused %d left unthreaded", pc, t2)
			}
		}
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 45 {
		t.Errorf("exit = %d, want 45", res.Exit)
	}
}

// TestNativeSourceHasNoDeadCode: natgen emits nothing between an
// unconditional transfer and the next label. Threading leaves
// threadSrc's loop-header compare-and-branch in the flat code after
// every jump into it has taken the test over, so nothing reaches it.
func TestNativeSourceHasNoDeadCode(t *testing.T) {
	src := Flatten(compileIR(t, threadSrc), false).NativeSource(true)
	transfer := regexp.MustCompile(`^\t\{ .*(goto l\d+|return [^{}]*) \}$`)
	label := regexp.MustCompile(`^l\d+:$`)
	lines := strings.Split(src, "\n")
	seen := 0
	for i := 0; i+1 < len(lines); i++ {
		if !transfer.MatchString(lines[i]) {
			continue
		}
		seen++
		if next := lines[i+1]; next != "}" && !label.MatchString(next) {
			t.Errorf("line %d follows an unconditional transfer:\n%s\n%s", i+2, lines[i], next)
		}
	}
	if seen == 0 {
		t.Fatal("no unconditional transfer found in the generated source")
	}
}

// TestThreadBranchNeedsFusedTarget: with the loop's compare split
// from its branch, the target block opens with a plain compare, so
// nothing threads.
func TestThreadBranchNeedsFusedTarget(t *testing.T) {
	mod := compileIR(t, threadSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpCmpLT, ir.OpCBr)
	splitBefore(fn, b, split)
	ops := opCount(Flatten(mod, false))
	if ops[fBrJLT] != 0 || ops[fJLT] != 0 {
		t.Errorf("loop test threaded or fused across a block edge: %v", ops)
	}
	checkEngineParity(t, mod)
}

// TestFoldImmediates: a constant load immediately feeding an add,
// a multiply or an and folds into it.
func TestFoldImmediates(t *testing.T) {
	mod := compileIR(t, foldSrc)
	ops := opCount(Flatten(mod, false))
	for _, op := range []flatOp{fAddI, fMulI, fAndI} {
		if ops[op] == 0 {
			t.Errorf("expected folded opcode %d, got %v", op, ops)
		}
	}
	res := checkEngineParity(t, mod)
	if res.Exit != 21 {
		t.Errorf("exit = %d, want 21", res.Exit)
	}
}

// TestFoldImmediateBlockEdge: a constant ending one block does not
// fold into the op opening the next.
func TestFoldImmediateBlockEdge(t *testing.T) {
	mod := compileIR(t, foldSrc)
	fn := mod.Funcs["main"]
	b, split := findPair(t, fn, ir.OpLoadI, ir.OpMul)
	splitBefore(fn, b, split)
	ops := opCount(Flatten(mod, false))
	if ops[fMulI] != 0 {
		t.Errorf("constant folded across a block edge: %v", ops)
	}
	checkEngineParity(t, mod)
}

// TestFoldImmediateBothOperands: a constant feeding both operands,
// and one whose register the op overwrites, still fold, and the
// engines still agree.
func TestFoldImmediateBothOperands(t *testing.T) {
	for _, overwrite := range []bool{false, true} {
		mod := compileIR(t, `
int main(void) {
	int a;
	a = 2;
	return a + 9;
}`)
		b, j := findPair(t, mod.Funcs["main"], ir.OpLoadI, ir.OpAdd)
		k := b.Instrs[j-1].Dst
		b.Instrs[j].A, b.Instrs[j].B = k, k
		if overwrite {
			b.Instrs[j].Dst = k
		}
		if ops := opCount(Flatten(mod, false)); ops[fAddI] == 0 {
			t.Errorf("overwrite=%v: k+k did not fold: %v", overwrite, ops)
		}
		checkEngineParity(t, mod)
	}
}

// faultSrc ends in a fused add-and-load through a null pointer, so a
// budget that runs out on the add must stop with the step-limit error
// before the load can fault.
const faultSrc = `
int main(void) {
	int *p;
	int i;
	p = 0;
	i = 2;
	return p[i];
}`

// TestBudgetSweepMatchesSwitch runs each fusion test program under
// every step budget from 1 up to the first that lets the switch
// engine finish (return, or fault past the budget's reach) on both
// engines: they must fail with the same error text or agree on every
// result. The budgets around the op total pin how many ops each
// fused, threaded and folded form counts. A check inside a form is
// observable only when a later op in it can fault (faultSrc's
// add-and-load): between pure ops the same error fires at the next
// check, in the same function.
func TestBudgetSweepMatchesSwitch(t *testing.T) {
	for _, src := range []string{cmpBrSrc, threadSrc, addPLoadSrc, addPStoreSrc, foldSrc, faultSrc} {
		mod := compileIR(t, src)
		p := Flatten(mod, false)
		for max := int64(1); ; max++ {
			flat, ferr := p.Run(Options{MaxSteps: max})
			ref, serr := Run(mod, Options{MaxSteps: max, Engine: EngineSwitch})
			switch {
			case ferr != nil || serr != nil:
				if fmt.Sprint(ferr) != fmt.Sprint(serr) {
					t.Fatalf("MaxSteps %d: flat err %v, switch err %v", max, ferr, serr)
				}
			case flat.Counts != ref.Counts || flat.Exit != ref.Exit || flat.Output != ref.Output:
				t.Fatalf("MaxSteps %d: flat %+v exit %d, switch %+v exit %d",
					max, flat.Counts, flat.Exit, ref.Counts, ref.Exit)
			}
			if serr == nil || !strings.Contains(serr.Error(), "step limit exceeded") {
				break
			}
			if max > 1<<16 {
				t.Fatalf("no budget up to %d finishes", max)
			}
		}
	}
}

// TestHookedRunMovesToSwitch: asking the flat engine for a profile or
// the sanitizer runs the switch engine, with the plain flat run's
// counts and result.
func TestHookedRunMovesToSwitch(t *testing.T) {
	mod := compileIR(t, addPLoadSrc)
	p := Flatten(mod, false)
	plain, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Profile: true}, {Sanitize: true}} {
		res, err := p.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts != plain.Counts || res.Exit != plain.Exit {
			t.Errorf("hooked run %+v exit %d, plain %+v exit %d", res.Counts, res.Exit, plain.Counts, plain.Exit)
		}
		if opts.Profile && res.Profile == nil {
			t.Error("profiled run returned no profile")
		}
	}
}

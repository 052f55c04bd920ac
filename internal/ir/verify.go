package ir

import "fmt"

// VerifyFuncAll checks structural well-formedness of a function —
// every block ends in exactly one terminator, successor counts match
// the terminator, edges are symmetric, register numbers are in range,
// memory operations carry sensible sizes and tags, and the side record
// (Aux) is present exactly on Jsr, PLoad, PStore and function AddrOf —
// and returns every violation found, each anchored to its function,
// block, and instruction. Deeper semantic invariants (reachability, use-before-
// def, tag discipline, promotion regions) live in internal/check.
func VerifyFuncAll(f *Func, tt *TagTable) []Diag {
	var ds []Diag
	funcDiag := func(msg string, args ...any) {
		ds = append(ds, Diag{Check: "verify", Func: f.Name, Index: -1, Msg: fmt.Sprintf(msg, args...)})
	}
	if f.Entry == nil {
		funcDiag("no entry block")
		return ds
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	if !inFunc[f.Entry] {
		funcDiag("entry block not in Blocks")
	}
	for _, b := range f.Blocks {
		blockDiag := func(msg string, args ...any) {
			ds = append(ds, Diag{Check: "verify", Func: f.Name, Block: b.Label, Index: -1, Msg: fmt.Sprintf(msg, args...)})
		}
		if len(b.Instrs) == 0 {
			blockDiag("empty block")
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				ds = append(ds, Diag{Check: "verify", Func: f.Name, Block: b.Label, Index: i, Op: in.Op, Msg: "terminator not last"})
			}
			ds = verifyInstr(ds, f, b, i, in, tt)
		}
		term := b.Terminator()
		if term == nil {
			blockDiag("missing terminator")
		} else {
			want := 0
			switch term.Op {
			case OpBr:
				want = 1
			case OpCBr:
				want = 2
			case OpRet:
				want = 0
			}
			if len(b.Succs) != want {
				blockDiag("%s with %d successors", term.Op, len(b.Succs))
			}
		}
		for _, s := range b.Succs {
			if !inFunc[s] {
				blockDiag("successor %s not in function", s.Label)
			} else if !hasPred(s, b) {
				blockDiag("successor %s missing back-pointer", s.Label)
			}
		}
		for _, p := range b.Preds {
			if !inFunc[p] {
				blockDiag("predecessor %s not in function", p.Label)
			} else if !p.HasSucc(b) {
				blockDiag("predecessor %s missing forward edge", p.Label)
			}
		}
	}
	return ds
}

// VerifyFunc runs VerifyFuncAll and summarizes the result as a single
// error (nil when the function is well-formed).
func VerifyFunc(f *Func, tt *TagTable) error {
	return DiagError(VerifyFuncAll(f, tt))
}

func hasPred(b, p *Block) bool {
	for _, q := range b.Preds {
		if q == p {
			return true
		}
	}
	return false
}

func verifyInstr(ds []Diag, f *Func, b *Block, idx int, in *Instr, tt *TagTable) []Diag {
	ctx := func(msg string, args ...any) {
		ds = append(ds, Diag{Check: "verify", Func: f.Name, Block: b.Label, Index: idx, Op: in.Op, Msg: fmt.Sprintf(msg, args...)})
	}
	checkReg := func(r Reg) {
		if r < 0 || int(r) >= f.NumRegs {
			ctx("register r%d out of range [0,%d)", r, f.NumRegs)
		}
	}
	var buf [8]Reg
	for _, r := range in.Uses(buf[:0]) {
		checkReg(r)
	}
	if d := in.Def(); d != RegInvalid {
		checkReg(d)
	}
	switch in.Op {
	case OpCLoad, OpSLoad, OpSStore:
		if tt != nil && (in.Tag < 0 || int(in.Tag) >= tt.Len()) {
			ctx("bad tag %d", in.Tag)
		}
		if in.Size != 1 && in.Size != 4 && in.Size != 8 {
			ctx("bad size %d", in.Size)
		}
	case OpPLoad, OpPStore:
		if in.Size != 1 && in.Size != 4 && in.Size != 8 {
			ctx("bad size %d", in.Size)
		}
	case OpAddrOf:
		if in.Callee() == "" && tt != nil && (in.Tag < 0 || int(in.Tag) >= tt.Len()) {
			ctx("bad tag %d", in.Tag)
		}
	}
	switch in.Op {
	case OpJsr, OpPLoad, OpPStore:
		if in.aux == nil {
			ctx("missing side record")
		}
	case OpAddrOf:
		if in.aux != nil && in.aux.Callee == "" {
			ctx("side record on a non-function addrOf")
		}
	default:
		if in.aux != nil {
			ctx("unexpected side record")
		}
	}
	return ds
}

// VerifyModuleAll verifies every function in the module, collecting
// all violations.
func VerifyModuleAll(m *Module) []Diag {
	var ds []Diag
	for _, f := range m.FuncsInOrder() {
		ds = append(ds, VerifyFuncAll(f, &m.Tags)...)
	}
	return ds
}

// VerifyModule verifies every function in the module, summarizing any
// violations as a single error.
func VerifyModule(m *Module) error {
	return DiagError(VerifyModuleAll(m))
}

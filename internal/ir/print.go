package ir

import (
	"fmt"
	"strings"
)

// FormatInstr renders one instruction in the paper's abstract style:
// mnemonic, tag list, then the registers involved.
func FormatInstr(in *Instr, tt *TagTable, b *Block) string {
	tagName := func(id TagID) string {
		if tt != nil && id != TagInvalid {
			return "[" + tt.Get(id).Name + "]"
		}
		return fmt.Sprintf("[t%d]", id)
	}
	tagsName := func(s TagSet) string {
		if tt != nil {
			return s.Format(tt)
		}
		return s.String()
	}
	succ := func(i int) string {
		if b != nil && i < len(b.Succs) {
			return b.Succs[i].Label
		}
		return fmt.Sprintf("succ%d", i)
	}
	switch in.Op {
	case OpNop:
		return "nop"
	case OpLoadI:
		return fmt.Sprintf("loadI %d -> r%d", in.Imm, in.Dst)
	case OpLoadF:
		return fmt.Sprintf("loadF %g -> r%d", in.Float(), in.Dst)
	case OpCopy:
		return fmt.Sprintf("cp r%d -> r%d", in.A, in.Dst)
	case OpNeg, OpNot, OpFNeg, OpI2F, OpF2I:
		return fmt.Sprintf("%s r%d -> r%d", in.Op, in.A, in.Dst)
	case OpCLoad:
		return fmt.Sprintf("cLoad %s -> r%d", tagName(in.Tag), in.Dst)
	case OpSLoad:
		return fmt.Sprintf("sLoad %s -> r%d", tagName(in.Tag), in.Dst)
	case OpSStore:
		return fmt.Sprintf("sStore %s r%d", tagName(in.Tag), in.A)
	case OpPLoad:
		return fmt.Sprintf("pLoad %s (r%d) -> r%d", tagsName(in.Tags()), in.A, in.Dst)
	case OpPStore:
		return fmt.Sprintf("pStore %s (r%d) r%d", tagsName(in.Tags()), in.A, in.B)
	case OpAddrOf:
		if in.Callee() != "" {
			return fmt.Sprintf("addrOf @%s -> r%d", in.Callee(), in.Dst)
		}
		return fmt.Sprintf("addrOf %s -> r%d", tagName(in.Tag), in.Dst)
	case OpBr:
		return fmt.Sprintf("br %s", succ(0))
	case OpCBr:
		return fmt.Sprintf("cbr r%d ? %s : %s", in.A, succ(0), succ(1))
	case OpRet:
		if in.HasValue {
			return fmt.Sprintf("ret r%d", in.A)
		}
		return "ret"
	case OpJsr:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = fmt.Sprintf("r%d", a)
		}
		target := "@" + in.Callee()
		if in.Callee() == "" {
			target = fmt.Sprintf("(r%d)", in.A)
		}
		s := fmt.Sprintf("jsr %s(%s)", target, strings.Join(args, ","))
		if in.HasValue {
			s += fmt.Sprintf(" -> r%d", in.Dst)
		}
		s += fmt.Sprintf(" mod %s ref %s", tagsName(in.Mods()), tagsName(in.Refs()))
		return s
	default:
		return fmt.Sprintf("%s r%d r%d -> r%d", in.Op, in.A, in.B, in.Dst)
	}
}

// FormatFunc renders a function listing.
func FormatFunc(f *Func, tt *TagTable) string {
	var sb strings.Builder
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("r%d", p)
	}
	fmt.Fprintf(&sb, "func %s(%s)  ; regs=%d\n", f.Name, strings.Join(params, ","), f.NumRegs)
	for _, b := range f.Blocks {
		succs := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = s.Label
		}
		fmt.Fprintf(&sb, "%s:", b.Label)
		if b == f.Entry {
			sb.WriteString("  ; entry")
		}
		sb.WriteByte('\n')
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", FormatInstr(&b.Instrs[i], tt, b))
		}
	}
	return sb.String()
}

// FormatModule renders every function in the module.
func FormatModule(m *Module) string {
	var sb strings.Builder
	for _, f := range m.FuncsInOrder() {
		sb.WriteString(FormatFunc(f, &m.Tags))
		sb.WriteByte('\n')
	}
	return sb.String()
}

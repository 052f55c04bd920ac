package check

import (
	"fmt"

	"regpromo/internal/analysis/modref"
	"regpromo/internal/callgraph"
	"regpromo/internal/ir"
)

// runArity checks every call site's interface: direct calls against
// the defined callee's parameter list and result arity, intrinsic
// calls against the runtime's signature table, indirect-call target
// sets against the address-taken function list, and the callgraph's
// FuncID interning table against the module itself.
func runArity(c *Context) []Diag {
	m := c.Module
	cg := c.Graph()
	var ds []Diag
	addressed := make(map[string]bool, len(m.AddressedFuncs))
	for _, f := range m.AddressedFuncs {
		addressed[f] = true
	}
	for _, fn := range m.FuncsInOrder() {
		if cg.ID(fn.Name) == callgraph.FuncInvalid {
			ds = append(ds, Diag{Check: "arity", Func: fn.Name, Index: -1,
				Msg: "function missing from the callgraph FuncID table"})
		}
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				diag := func(msg string, args ...any) {
					ds = append(ds, Diag{Check: "arity", Func: fn.Name, Block: b.Label, Index: i, Op: in.Op,
						Msg: fmt.Sprintf(msg, args...)})
				}
				switch in.Op {
				case ir.OpJsr:
					if in.Callee() != "" {
						checkCallee(m, in, in.Callee(), false, diag)
					} else {
						for _, t := range in.Targets() {
							if !addressed[t] {
								diag("indirect call target %q is never address-taken", t)
							}
							checkCallee(m, in, t, true, diag)
						}
					}
				case ir.OpAddrOf:
					callee := in.Callee()
					if callee == "" {
						break
					}
					if _, ok := m.Funcs[callee]; !ok {
						diag("address of undefined function %q", callee)
					} else if !addressed[callee] {
						diag("%q has its address taken but is missing from AddressedFuncs", callee)
					}
				}
			}
		}
	}
	return ds
}

// checkCallee validates one resolved callee of a call site: a defined
// function, a runtime intrinsic, or (a violation) neither.
func checkCallee(m *ir.Module, in *ir.Instr, name string, indirect bool, diag func(string, ...any)) {
	kind := "call to"
	if indirect {
		kind = "indirect call target"
	}
	nargs := len(in.Args())
	if callee, ok := m.Funcs[name]; ok {
		if nargs != len(callee.Params) {
			diag("%s %q with %d args, want %d", kind, name, nargs, len(callee.Params))
		}
		if in.HasValue && !callee.HasVarRet {
			diag("%s %q uses a result, but the function returns none", kind, name)
		}
		return
	}
	if arity, returns, ok := modref.IntrinsicSignature(name); ok {
		if nargs != arity {
			diag("%s intrinsic %q with %d args, want %d", kind, name, nargs, arity)
		}
		if in.HasValue && !returns {
			diag("%s intrinsic %q uses a result, but it returns none", kind, name)
		}
		return
	}
	diag("%s undefined function %q", kind, name)
}

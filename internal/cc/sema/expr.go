package sema

import (
	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// rval applies the value conversions: arrays decay to pointers to
// their element type, functions to function pointers.
func rval(t *types.Type) *types.Type {
	switch t.Kind {
	case types.Array:
		return types.PointerTo(t.Elem)
	case types.Func:
		return types.PointerTo(t)
	}
	return t
}

// assignable reports whether a value of type src may be assigned to a
// location of type dst. The rules are deliberately lenient, matching
// pre-ANSI C practice in the benchmark sources: arithmetic types
// interconvert, any pointer converts to any pointer, and integers and
// pointers interconvert.
func assignable(dst, src *types.Type) bool {
	if dst.IsArith() && src.IsArith() {
		return true
	}
	if dst.Kind == types.Pointer && src.Kind == types.Pointer {
		return true
	}
	if dst.Kind == types.Pointer && src.IsInteger() {
		return true
	}
	if dst.IsInteger() && src.Kind == types.Pointer {
		return true
	}
	return false
}

// commonType computes the usual arithmetic conversion of two types.
func commonType(a, b *types.Type) *types.Type {
	if a.Kind == types.Double || b.Kind == types.Double {
		return types.DoubleType
	}
	if a.Kind == types.Pointer {
		return a
	}
	if b.Kind == types.Pointer {
		return b
	}
	if a.Kind == types.Long || b.Kind == types.Long {
		return types.LongType
	}
	return types.IntType
}

// isLvalue reports whether e designates a storage location.
func isLvalue(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.Ident:
		return n.Sym != nil && n.Sym.Kind != ast.SymFunc && n.Sym.Kind != ast.SymEnumConst
	case *ast.Unary:
		return n.Op == token.Star
	case *ast.Index:
		return true
	case *ast.Member:
		return true
	}
	return false
}

// markAddrTaken records that e's storage has its address exposed.
func markAddrTaken(e ast.Expr) {
	switch n := e.(type) {
	case *ast.Ident:
		if n.Sym != nil {
			n.Sym.AddrTaken = true
		}
	case *ast.Member:
		if !n.Arrow {
			markAddrTaken(n.X)
		}
	case *ast.Index:
		// x[i] on an array variable exposes the array itself; on a
		// pointer it exposes already-exposed storage.
		if n.X.Type() != nil && n.X.Type().Kind == types.Array {
			markAddrTaken(n.X)
		}
	}
}

func (c *checker) checkExpr(e ast.Expr) error {
	switch n := e.(type) {
	case *ast.IntLit:
		// Literals that fit in int are int; larger are long.
		if n.Value >= -(1<<31) && n.Value < 1<<31 {
			ast.SetType(n, types.IntType)
		} else {
			ast.SetType(n, types.LongType)
		}
		return nil

	case *ast.FloatLit:
		ast.SetType(n, types.DoubleType)
		return nil

	case *ast.StringLit:
		idx, ok := c.strIndex[n.Value]
		if !ok {
			idx = len(c.prog.Strings)
			c.prog.Strings = append(c.prog.Strings, n.Value)
			c.strIndex[n.Value] = idx
		}
		n.Index = idx
		ast.SetType(n, types.ArrayOf(types.CharType, len(n.Value)+1))
		return nil

	case *ast.Ident:
		sym := c.lookup(n.Name)
		if sym == nil {
			return c.errorf(n.Pos(), "undefined: %s", n.Name)
		}
		n.Sym = sym
		ast.SetType(n, sym.Type)
		if sym.Kind == ast.SymFunc {
			// A function name reaching generic expression checking
			// is being used as a value (direct calls resolve their
			// callee in checkCall without coming through here), so
			// its address escapes.
			c.markFuncAddressed(sym.Name, n.Pos())
		}
		return nil

	case *ast.Unary:
		return c.checkUnary(n)

	case *ast.Postfix:
		if err := c.checkExpr(n.X); err != nil {
			return err
		}
		if !isLvalue(n.X) || !rval(n.X.Type()).IsScalar() || n.X.Type().Kind == types.Array {
			return c.errorf(n.Pos(), "%s requires a scalar lvalue", n.Op)
		}
		ast.SetType(n, rval(n.X.Type()))
		return nil

	case *ast.Binary:
		return c.checkBinary(n)

	case *ast.Assign:
		return c.checkAssign(n)

	case *ast.Cond:
		if err := c.checkCond(n.C); err != nil {
			return err
		}
		if err := c.checkExpr(n.X); err != nil {
			return err
		}
		if err := c.checkExpr(n.Y); err != nil {
			return err
		}
		xt, yt := rval(n.X.Type()), rval(n.Y.Type())
		switch {
		case xt.IsArith() && yt.IsArith():
			ast.SetType(n, commonType(xt, yt))
		case xt.Kind == types.Pointer:
			ast.SetType(n, xt)
		case yt.Kind == types.Pointer:
			ast.SetType(n, yt)
		default:
			return c.errorf(n.Pos(), "incompatible ?: arms: %s and %s", xt, yt)
		}
		return nil

	case *ast.Index:
		if err := c.checkExpr(n.X); err != nil {
			return err
		}
		if err := c.checkExpr(n.I); err != nil {
			return err
		}
		xt := n.X.Type()
		base := rval(xt)
		if base.Kind != types.Pointer || base.Elem.Kind == types.Func || base.Elem.Kind == types.Void {
			return c.errorf(n.Pos(), "cannot index %s", xt)
		}
		if !rval(n.I.Type()).IsInteger() {
			return c.errorf(n.I.Pos(), "array index has non-integer type %s", n.I.Type())
		}
		markAddrTaken(n.X)
		ast.SetType(n, base.Elem)
		return nil

	case *ast.Call:
		return c.checkCall(n)

	case *ast.Member:
		if err := c.checkExpr(n.X); err != nil {
			return err
		}
		var st *types.Type
		if n.Arrow {
			pt := rval(n.X.Type())
			if pt.Kind != types.Pointer || pt.Elem.Kind != types.Struct {
				return c.errorf(n.Pos(), "-> on non-struct-pointer %s", n.X.Type())
			}
			st = pt.Elem
		} else {
			st = n.X.Type()
			if st.Kind != types.Struct {
				return c.errorf(n.Pos(), ". on non-struct %s", st)
			}
		}
		f, ok := st.FieldByName(n.Name)
		if !ok {
			return c.errorf(n.Pos(), "%s has no field %s", st, n.Name)
		}
		n.Field = f
		if !n.Arrow {
			// Accessing a member of a struct variable exposes the
			// variable's storage to address arithmetic.
			markAddrTaken(n.X)
		}
		ast.SetType(n, f.Type)
		return nil

	case *ast.SizeofExpr:
		if n.OfType != nil {
			n.Size = n.OfType.Size()
		} else {
			if err := c.checkExpr(n.Arg); err != nil {
				return err
			}
			n.Size = n.Arg.Type().Size()
		}
		ast.SetType(n, types.LongType)
		return nil

	case *ast.Cast:
		if err := c.checkExpr(n.X); err != nil {
			return err
		}
		src := rval(n.X.Type())
		dst := n.To
		if dst.Kind == types.Void {
			ast.SetType(n, dst)
			return nil
		}
		if !dst.IsScalar() || !src.IsScalar() {
			return c.errorf(n.Pos(), "invalid cast from %s to %s", src, dst)
		}
		ast.SetType(n, dst)
		return nil

	case *ast.ListExpr:
		for _, el := range n.Elems {
			if err := c.checkExpr(el); err != nil {
				return err
			}
		}
		ast.SetType(n, types.VoidType)
		return nil
	}
	return c.errorf(e.Pos(), "unhandled expression %T", e)
}

func (c *checker) checkUnary(n *ast.Unary) error {
	if err := c.checkExpr(n.X); err != nil {
		return err
	}
	xt := n.X.Type()
	switch n.Op {
	case token.Minus:
		if !rval(xt).IsArith() {
			return c.errorf(n.Pos(), "unary - on %s", xt)
		}
		t := rval(xt)
		if t.IsInteger() && t.Kind == types.Char {
			t = types.IntType
		}
		ast.SetType(n, t)
	case token.Not:
		if !rval(xt).IsScalar() {
			return c.errorf(n.Pos(), "! on %s", xt)
		}
		ast.SetType(n, types.IntType)
	case token.Tilde:
		if !rval(xt).IsInteger() {
			return c.errorf(n.Pos(), "~ on %s", xt)
		}
		ast.SetType(n, rval(xt))
	case token.Star:
		pt := rval(xt)
		if pt.Kind != types.Pointer {
			return c.errorf(n.Pos(), "dereference of non-pointer %s", xt)
		}
		if pt.Elem.Kind == types.Void {
			return c.errorf(n.Pos(), "dereference of void pointer")
		}
		if pt.Elem.Kind == types.Func {
			// *f on a function pointer yields the function again.
			ast.SetType(n, pt.Elem)
			return nil
		}
		ast.SetType(n, pt.Elem)
	case token.And:
		if id, ok := n.X.(*ast.Ident); ok && id.Sym != nil && id.Sym.Kind == ast.SymFunc {
			c.markFuncAddressed(id.Sym.Name, n.Pos())
			ast.SetType(n, types.PointerTo(id.Sym.Type))
			return nil
		}
		if !isLvalue(n.X) {
			return c.errorf(n.Pos(), "& requires an lvalue")
		}
		markAddrTaken(n.X)
		ast.SetType(n, types.PointerTo(xt))
	case token.Inc, token.Dec:
		if !isLvalue(n.X) || !rval(xt).IsScalar() || xt.Kind == types.Array {
			return c.errorf(n.Pos(), "%s requires a scalar lvalue", n.Op)
		}
		ast.SetType(n, rval(xt))
	default:
		return c.errorf(n.Pos(), "unhandled unary %s", n.Op)
	}
	return nil
}

func (c *checker) markFuncAddressed(name string, pos token.Pos) {
	for _, n := range c.prog.AddressedFuncs {
		if n == name {
			return
		}
	}
	c.prog.AddressedFuncs = append(c.prog.AddressedFuncs, name)
	c.addressedAt = append(c.addressedAt, pos)
}

func (c *checker) checkBinary(n *ast.Binary) error {
	if err := c.checkExpr(n.X); err != nil {
		return err
	}
	if err := c.checkExpr(n.Y); err != nil {
		return err
	}
	xt, yt := rval(n.X.Type()), rval(n.Y.Type())
	switch n.Op {
	case token.OrOr, token.AndAnd:
		if !xt.IsScalar() || !yt.IsScalar() {
			return c.errorf(n.Pos(), "%s on %s and %s", n.Op, xt, yt)
		}
		ast.SetType(n, types.IntType)
	case token.Eq, token.NotEq, token.Lt, token.Le, token.Gt, token.Ge:
		if !(xt.IsArith() && yt.IsArith()) &&
			!(xt.Kind == types.Pointer && yt.Kind == types.Pointer) &&
			!(xt.Kind == types.Pointer && yt.IsInteger()) &&
			!(xt.IsInteger() && yt.Kind == types.Pointer) {
			return c.errorf(n.Pos(), "comparison of %s and %s", xt, yt)
		}
		ast.SetType(n, types.IntType)
	case token.Plus:
		switch {
		case xt.IsArith() && yt.IsArith():
			ast.SetType(n, commonType(xt, yt))
		case xt.Kind == types.Pointer && yt.IsInteger():
			ast.SetType(n, xt)
		case xt.IsInteger() && yt.Kind == types.Pointer:
			ast.SetType(n, yt)
		default:
			return c.errorf(n.Pos(), "+ on %s and %s", xt, yt)
		}
	case token.Minus:
		switch {
		case xt.IsArith() && yt.IsArith():
			ast.SetType(n, commonType(xt, yt))
		case xt.Kind == types.Pointer && yt.IsInteger():
			ast.SetType(n, xt)
		case xt.Kind == types.Pointer && yt.Kind == types.Pointer:
			ast.SetType(n, types.LongType)
		default:
			return c.errorf(n.Pos(), "- on %s and %s", xt, yt)
		}
	case token.Star, token.Slash:
		if !xt.IsArith() || !yt.IsArith() {
			return c.errorf(n.Pos(), "%s on %s and %s", n.Op, xt, yt)
		}
		ast.SetType(n, commonType(xt, yt))
	case token.Percent, token.And, token.Or, token.Xor, token.Shl, token.Shr:
		if !xt.IsInteger() || !yt.IsInteger() {
			return c.errorf(n.Pos(), "%s on %s and %s", n.Op, xt, yt)
		}
		ast.SetType(n, commonType(xt, yt))
	default:
		return c.errorf(n.Pos(), "unhandled binary %s", n.Op)
	}
	return nil
}

func (c *checker) checkAssign(n *ast.Assign) error {
	if err := c.checkExpr(n.X); err != nil {
		return err
	}
	if err := c.checkExpr(n.Y); err != nil {
		return err
	}
	if !isLvalue(n.X) {
		return c.errorf(n.Pos(), "assignment to non-lvalue")
	}
	dst := n.X.Type()
	if dst.Kind == types.Array {
		return c.errorf(n.Pos(), "assignment to array")
	}
	if dst.Kind == types.Struct {
		return c.errorf(n.Pos(), "struct assignment is not supported (copy fields)")
	}
	src := rval(n.Y.Type())
	if n.Op == token.Assign {
		if !assignable(dst, src) {
			return c.errorf(n.Pos(), "cannot assign %s to %s", src, dst)
		}
	} else {
		// Compound assignment: the operation must be valid on
		// (dst, src) as a binary op.
		switch n.Op {
		case token.PlusAssign, token.MinusAssign:
			if !(dst.IsArith() && src.IsArith()) &&
				!(dst.Kind == types.Pointer && src.IsInteger()) {
				return c.errorf(n.Pos(), "%s on %s and %s", n.Op, dst, src)
			}
		case token.StarAssign, token.SlashAssign:
			if !dst.IsArith() || !src.IsArith() {
				return c.errorf(n.Pos(), "%s on %s and %s", n.Op, dst, src)
			}
		default:
			if !dst.IsInteger() || !src.IsInteger() {
				return c.errorf(n.Pos(), "%s on %s and %s", n.Op, dst, src)
			}
		}
	}
	ast.SetType(n, dst)
	return nil
}

func (c *checker) checkCall(n *ast.Call) error {
	// Resolve the callee; a bare identifier naming a function is a
	// direct call, anything else must be a function pointer.
	var sig *types.Type
	if id, ok := n.Fun.(*ast.Ident); ok {
		sym := c.lookup(id.Name)
		if sym == nil {
			return c.errorf(id.Pos(), "undefined function: %s", id.Name)
		}
		id.Sym = sym
		ast.SetType(id, sym.Type)
		if sym.Kind == ast.SymFunc {
			sig = sym.Type
			if _, seen := c.called[sym.Name]; !seen {
				c.called[sym.Name] = n.Pos()
			}
		}
	}
	if sig == nil {
		if err := c.checkExpr(n.Fun); err != nil {
			// Already checked identifiers pass again harmlessly;
			// real errors propagate.
			if _, isIdent := n.Fun.(*ast.Ident); !isIdent {
				return err
			}
		}
		ft := rval(n.Fun.Type())
		if ft.Kind == types.Pointer && ft.Elem.Kind == types.Func {
			sig = ft.Elem
		} else if ft.Kind == types.Func {
			sig = ft
		} else {
			return c.errorf(n.Pos(), "call of non-function type %s", n.Fun.Type())
		}
	}
	if len(n.Args) < len(sig.Params) || (len(n.Args) > len(sig.Params) && !sig.Variadic) {
		return c.errorf(n.Pos(), "wrong argument count: have %d, want %d", len(n.Args), len(sig.Params))
	}
	for i, a := range n.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
		if i < len(sig.Params) {
			if !assignable(sig.Params[i], rval(a.Type())) {
				return c.errorf(a.Pos(), "argument %d: cannot use %s as %s", i+1, a.Type(), sig.Params[i])
			}
		}
	}
	ast.SetType(n, sig.Elem)
	return nil
}

// Package sema resolves names, checks types, and annotates the AST for
// IL generation. It also performs the address-taken analysis the paper
// attributes to the front end (§4: "only tags that have had their
// address taken are placed in the tag sets of pointer-based memory
// operations. The front end identifies these tags.").
package sema

import (
	"fmt"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Program is a checked translation unit ready for IL generation.
type Program struct {
	File *ast.File

	// Globals are the program's global variables in declaration
	// order.
	Globals []*ast.VarDecl

	// Funcs are the defined functions in declaration order.
	Funcs []*ast.FuncDecl

	// Strings is the string-literal pool; ast.StringLit.Index
	// refers into it.
	Strings []string

	// FuncSyms maps function names to symbols (including builtins).
	FuncSyms map[string]*ast.Symbol

	// AddressedFuncs lists functions whose address was taken.
	AddressedFuncs []string
}

// Builtins are the runtime intrinsics every program may call without
// declaring. They model the tiny libc the benchmark programs need.
var Builtins = map[string]*types.Type{
	"print_int":    types.FuncOf(types.VoidType, []*types.Type{types.LongType}, false),
	"print_char":   types.FuncOf(types.VoidType, []*types.Type{types.IntType}, false),
	"print_double": types.FuncOf(types.VoidType, []*types.Type{types.DoubleType}, false),
	"print_str":    types.FuncOf(types.VoidType, []*types.Type{types.PointerTo(types.CharType)}, false),
	"malloc":       types.FuncOf(types.PointerTo(types.VoidType), []*types.Type{types.LongType}, false),
	"free":         types.FuncOf(types.VoidType, []*types.Type{types.PointerTo(types.VoidType)}, false),
}

type checker struct {
	prog *Program

	scopes []map[string]*ast.Symbol
	fn     *ast.FuncDecl
	// loopDepth > 0 inside a loop (for break/continue checking).
	loopDepth int
	// uniq numbers local symbols within the current function.
	uniq int
	// strIndex dedupes string literals.
	strIndex map[string]int
	// called records call sites of named functions, for the
	// whole-program completeness check.
	called map[string]token.Pos
	// addressedAt is where each of prog.AddressedFuncs first had its
	// address taken, for the same check.
	addressedAt []token.Pos
}

// Check type-checks the file and returns the annotated program.
func Check(file *ast.File) (*Program, error) {
	c := &checker{
		prog: &Program{
			File:     file,
			FuncSyms: make(map[string]*ast.Symbol),
		},
		strIndex: make(map[string]int),
		called:   make(map[string]token.Pos),
	}
	c.push()
	defer c.pop()

	// Builtins first, so programs may shadow none of them.
	for name, sig := range Builtins {
		sym := &ast.Symbol{Kind: ast.SymFunc, Name: name, Type: sig}
		c.prog.FuncSyms[name] = sym
		c.scopes[0][name] = sym
	}

	// Declaration pass in source order: enums, globals, function
	// signatures (the parser already rejected by-value fields of
	// incomplete struct type). Bodies are checked afterwards so
	// forward calls resolve.
	for _, d := range file.Decls {
		switch n := d.(type) {
		case *ast.EnumDecl:
			for i, name := range n.Names {
				sym := &ast.Symbol{Kind: ast.SymEnumConst, Name: name, Type: types.IntType, EnumValue: n.Vals[i]}
				if err := c.declare(n.Pos(), name, sym); err != nil {
					return nil, err
				}
			}
		case *ast.VarDecl:
			if err := c.declareGlobal(n); err != nil {
				return nil, err
			}
		case *ast.FuncDecl:
			if err := c.declareFunc(n); err != nil {
				return nil, err
			}
		}
	}

	// Check global initializers (constants only).
	for _, g := range c.prog.Globals {
		if err := c.checkGlobalInit(g); err != nil {
			return nil, err
		}
	}

	// Check function bodies.
	defined := map[string]bool{}
	for _, fd := range file.Funcs {
		if fd.Body == nil {
			continue
		}
		defined[fd.Name] = true
		if err := c.checkFunc(fd); err != nil {
			return nil, err
		}
	}

	// Whole-program completeness: the compiler analyzes the entire
	// program at once (§4), so every called or addressed function
	// must be defined here or be a runtime intrinsic.
	for name, pos := range c.called {
		if _, builtin := Builtins[name]; builtin || defined[name] {
			continue
		}
		return nil, c.errorf(pos, "call to undefined function %s (whole-program compilation requires a definition)", name)
	}
	for i, name := range c.prog.AddressedFuncs {
		if _, builtin := Builtins[name]; builtin || defined[name] {
			continue
		}
		return nil, c.errorf(c.addressedAt[i], "address taken of undefined function %s", name)
	}
	return c.prog, nil
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*ast.Symbol)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos token.Pos, name string, sym *ast.Symbol) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return c.errorf(pos, "%s redeclared in this scope", name)
	}
	top[name] = sym
	return nil
}

func (c *checker) lookup(name string) *ast.Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if sym, ok := c.scopes[i][name]; ok {
			return sym
		}
	}
	return nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: c.prog.File.Source.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) declareGlobal(n *ast.VarDecl) error {
	if n.Type.Kind == types.Void {
		return c.errorf(n.Pos(), "variable %s has void type", n.Name)
	}
	if n.Type.Kind == types.Struct && len(n.Type.Fields) == 0 {
		return c.errorf(n.Pos(), "variable %s has incomplete struct type", n.Name)
	}
	if n.Type.Kind == types.Array && n.Type.ArrayLen == 0 && len(n.InitList) > 0 {
		// Size unsized arrays from their initializer.
		n.Type = types.ArrayOf(n.Type.Elem, len(n.InitList))
	}
	sym := &ast.Symbol{Kind: ast.SymGlobal, Name: n.Name, Type: n.Type}
	n.Sym = sym
	c.prog.Globals = append(c.prog.Globals, n)
	return c.declare(n.Pos(), n.Name, sym)
}

func (c *checker) declareFunc(fd *ast.FuncDecl) error {
	sig := types.FuncOf(fd.Result, paramTypes(fd), false)
	if prev, ok := c.prog.FuncSyms[fd.Name]; ok {
		if !types.Equal(prev.Type, sig) {
			return c.errorf(fd.Pos(), "conflicting declarations of %s: %s vs %s", fd.Name, prev.Type, sig)
		}
		fd.Sym = prev
		if fd.Body != nil {
			c.prog.Funcs = append(c.prog.Funcs, fd)
		}
		return nil
	}
	if fd.Result.Kind == types.Struct {
		return c.errorf(fd.Pos(), "struct return values are not supported")
	}
	for _, p := range fd.Params {
		if p.Type.Kind == types.Struct {
			return c.errorf(p.Pos(), "struct parameters are not supported (pass a pointer)")
		}
	}
	sym := &ast.Symbol{Kind: ast.SymFunc, Name: fd.Name, Type: sig}
	fd.Sym = sym
	c.prog.FuncSyms[fd.Name] = sym
	if err := c.declare(fd.Pos(), fd.Name, sym); err != nil {
		return err
	}
	if fd.Body != nil {
		c.prog.Funcs = append(c.prog.Funcs, fd)
	}
	return nil
}

func paramTypes(fd *ast.FuncDecl) []*types.Type {
	out := make([]*types.Type, len(fd.Params))
	for i, p := range fd.Params {
		out[i] = p.Type
	}
	return out
}

func (c *checker) checkGlobalInit(g *ast.VarDecl) error {
	if g.Init != nil {
		if err := c.checkExpr(g.Init); err != nil {
			return err
		}
		if !isConstExpr(g.Init) {
			return c.errorf(g.Init.Pos(), "global initializer must be constant")
		}
	}
	for _, e := range g.InitList {
		if err := c.checkExpr(e); err != nil {
			return err
		}
		if !isConstExpr(e) {
			return c.errorf(e.Pos(), "global initializer element must be constant")
		}
	}
	return nil
}

// isConstExpr reports whether e is a compile-time constant the
// initializer evaluator handles.
func isConstExpr(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.StringLit:
		return true
	case *ast.Ident:
		if n.Sym == nil {
			return false
		}
		// Enum constants fold; a global array name is an address
		// constant.
		return n.Sym.Kind == ast.SymEnumConst ||
			(n.Sym.Kind == ast.SymGlobal && n.Sym.Type.Kind == types.Array)
	case *ast.Unary:
		if n.Op == token.And {
			// &global and &global_array[const] are address constants.
			switch x := n.X.(type) {
			case *ast.Ident:
				return x.Sym != nil && x.Sym.Kind == ast.SymGlobal
			case *ast.Index:
				id, ok := x.X.(*ast.Ident)
				if !ok || id.Sym == nil || id.Sym.Kind != ast.SymGlobal ||
					id.Sym.Type.Kind != types.Array {
					return false
				}
				_, lit := x.I.(*ast.IntLit)
				return lit
			}
			return false
		}
		return (n.Op == token.Minus || n.Op == token.Tilde || n.Op == token.Not) && isConstExpr(n.X)
	case *ast.Binary:
		return isConstExpr(n.X) && isConstExpr(n.Y)
	case *ast.SizeofExpr:
		return true
	case *ast.Cast:
		return isConstExpr(n.X)
	case *ast.ListExpr:
		for _, el := range n.Elems {
			if !isConstExpr(el) {
				return false
			}
		}
		return true
	}
	return false
}

func (c *checker) checkFunc(fd *ast.FuncDecl) error {
	c.fn = fd
	c.uniq = 0
	c.push()
	defer c.pop()
	for _, p := range fd.Params {
		if p.Name == "" {
			return c.errorf(p.Pos(), "unnamed parameter in definition of %s", fd.Name)
		}
		sym := &ast.Symbol{Kind: ast.SymParam, Name: p.Name, Type: p.Type, Func: fd, Uniq: c.uniq}
		c.uniq++
		p.Sym = sym
		if err := c.declare(p.Pos(), p.Name, sym); err != nil {
			return err
		}
	}
	return c.checkBlock(fd.Body)
}

func (c *checker) checkBlock(b *ast.Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s ast.Stmt) error {
	switch n := s.(type) {
	case *ast.Block:
		return c.checkBlock(n)
	case *ast.Empty:
		return nil
	case *ast.ExprStmt:
		return c.checkExpr(n.X)
	case *ast.DeclStmt:
		for _, d := range n.Decls {
			if err := c.checkLocalDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *ast.If:
		if err := c.checkCond(n.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(n.Then); err != nil {
			return err
		}
		if n.Else != nil {
			return c.checkStmt(n.Else)
		}
		return nil
	case *ast.While:
		if err := c.checkCond(n.Cond); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(n.Body)
	case *ast.DoWhile:
		c.loopDepth++
		err := c.checkStmt(n.Body)
		c.loopDepth--
		if err != nil {
			return err
		}
		return c.checkCond(n.Cond)
	case *ast.For:
		c.push()
		defer c.pop()
		if n.Init != nil {
			if err := c.checkStmt(n.Init); err != nil {
				return err
			}
		}
		if n.Cond != nil {
			if err := c.checkCond(n.Cond); err != nil {
				return err
			}
		}
		if n.Post != nil {
			if err := c.checkExpr(n.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkStmt(n.Body)
	case *ast.Return:
		want := c.fn.Result
		if n.Value == nil {
			if want.Kind != types.Void {
				return c.errorf(n.Pos(), "missing return value in %s", c.fn.Name)
			}
			return nil
		}
		if want.Kind == types.Void {
			return c.errorf(n.Pos(), "return with value in void function %s", c.fn.Name)
		}
		if err := c.checkExpr(n.Value); err != nil {
			return err
		}
		if !assignable(want, rval(n.Value.Type())) {
			return c.errorf(n.Pos(), "cannot return %s as %s", n.Value.Type(), want)
		}
		return nil
	case *ast.Break:
		if c.loopDepth == 0 {
			return c.errorf(n.Pos(), "break outside loop")
		}
		return nil
	case *ast.Continue:
		if c.loopDepth == 0 {
			return c.errorf(n.Pos(), "continue outside loop")
		}
		return nil
	}
	return c.errorf(s.Pos(), "unhandled statement %T", s)
}

func (c *checker) checkLocalDecl(d *ast.VarDecl) error {
	if d.Type.Kind == types.Void {
		return c.errorf(d.Pos(), "variable %s has void type", d.Name)
	}
	if d.Type.Kind == types.Struct && len(d.Type.Fields) == 0 {
		return c.errorf(d.Pos(), "variable %s has incomplete struct type", d.Name)
	}
	if d.Type.Kind == types.Array && d.Type.ArrayLen == 0 && len(d.InitList) > 0 {
		d.Type = types.ArrayOf(d.Type.Elem, len(d.InitList))
	}
	sym := &ast.Symbol{Kind: ast.SymLocal, Name: d.Name, Type: d.Type, Func: c.fn, Uniq: c.uniq}
	c.uniq++
	d.Sym = sym
	c.fn.Locals = append(c.fn.Locals, d)
	if err := c.declare(d.Pos(), d.Name, sym); err != nil {
		return err
	}
	if d.Init != nil {
		if err := c.checkExpr(d.Init); err != nil {
			return err
		}
		if !assignable(d.Type, rval(d.Init.Type())) {
			return c.errorf(d.Init.Pos(), "cannot initialize %s (%s) with %s", d.Name, d.Type, d.Init.Type())
		}
	}
	for _, e := range d.InitList {
		if err := c.checkExpr(e); err != nil {
			return err
		}
	}
	if len(d.InitList) > 0 && d.Type.Kind != types.Array && d.Type.Kind != types.Struct {
		return c.errorf(d.Pos(), "brace initializer on scalar %s", d.Name)
	}
	return nil
}

func (c *checker) checkCond(e ast.Expr) error {
	if err := c.checkExpr(e); err != nil {
		return err
	}
	if !rval(e.Type()).IsScalar() {
		return c.errorf(e.Pos(), "condition has non-scalar type %s", e.Type())
	}
	return nil
}

// Package parser implements a recursive-descent parser for the C
// subset. The grammar has no typedefs, so a statement begins a
// declaration exactly when it begins with a type keyword; casts are
// disambiguated the same way.
package parser

import (
	"fmt"

	"regpromo/internal/cc/ast"
	"regpromo/internal/cc/lexer"
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser holds parse state for one translation unit. Tokens stream
// from the lexer: the grammar needs at most two tokens of lookahead,
// so only the current token and those two are held, in a ring the
// parser reads by pointer, never the whole file's token array.
type Parser struct {
	lx *lexer.Lexer
	// la is the lookahead ring: la[head&laMask] is the current token
	// and the n tokens from there on have been scanned.
	la   [laMask + 1]token.Token
	head int
	n    int
	// lexErr is the lexer's first error; once set, the stream reads as
	// EOF.
	lexErr error

	file    *ast.File
	structs map[string]*types.Type

	// paramNames holds the parameter names of the most recently
	// parsed function declarator, in order.
	paramNames []string
}

// laMask sizes the lookahead ring: a power of two above the two
// tokens of lookahead plus the current one.
const laMask = 3

// Parse parses one source file. A lexical error anywhere in the file
// takes precedence over a syntax error, as if the file had been
// tokenized in full before parsing.
func Parse(filename, src string) (*ast.File, error) {
	lx := lexer.New(filename, src)
	p := &Parser{
		lx:      lx,
		file:    &ast.File{Name: filename, Source: lx.File()},
		structs: make(map[string]*types.Type),
	}
	err := p.parseFile()
	if err != nil && p.lexErr == nil {
		// Scan the rest of the file for a lexical error.
		for !p.at(token.EOF) {
			p.next()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.file, nil
}

// tok returns the token k places ahead of the current one (k ≤ 2),
// scanning it if needed. Past the end of input it is the EOF token.
// The pointer is valid until the parser next advances.
func (p *Parser) tok(k int) *token.Token {
	if k >= p.n {
		p.scan(k)
	}
	return &p.la[(p.head+k)&laMask]
}

// scan fills the ring up to k tokens ahead of the current one.
func (p *Parser) scan(k int) {
	for ; p.n <= k; p.n++ {
		t := &p.la[(p.head+p.n)&laMask]
		if p.lexErr != nil {
			*t = token.Token{Kind: token.EOF}
			continue
		}
		var err error
		if *t, err = p.lx.Next(); err != nil {
			p.lexErr = err
			*t = token.Token{Kind: token.EOF}
		}
	}
}

func (p *Parser) cur() *token.Token  { return p.tok(0) }
func (p *Parser) peek() *token.Token { return p.tok(1) }

// next consumes the current token; at EOF it stays put.
func (p *Parser) next() {
	if p.cur().Kind != token.EOF {
		p.head++
		p.n--
	}
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) error {
	if !p.at(k) {
		return p.errorf("expected %s, found %s", k, p.cur())
	}
	p.next()
	return nil
}

// ident consumes an identifier and returns its name.
func (p *Parser) ident() (string, error) {
	name := p.cur().Text
	return name, p.expect(token.Ident)
}

func (p *Parser) errorf(format string, args ...any) error {
	return p.errorAt(p.cur().Pos, format, args...)
}

func (p *Parser) errorAt(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: p.file.Source.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.cur().Kind {
	case token.KwVoid, token.KwChar, token.KwInt, token.KwLong, token.KwDouble,
		token.KwStruct, token.KwConst, token.KwUnsigned, token.KwEnum:
		return true
	}
	return false
}

func (p *Parser) isDeclStart() bool {
	switch p.cur().Kind {
	case token.KwStatic, token.KwExtern:
		return true
	}
	return p.isTypeStart()
}

// ---------- Top level ----------

func (p *Parser) parseFile() error {
	for !p.at(token.EOF) {
		if err := p.parseTopDecl(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseTopDecl() error {
	// Storage classes are accepted and ignored: the subset compiles
	// whole programs at once, so extern/static linkage does not
	// change behaviour.
	for p.at(token.KwStatic) || p.at(token.KwExtern) {
		p.next()
	}

	switch p.cur().Kind {
	case token.KwStruct:
		// Either a struct definition/declaration or a variable of
		// struct type; look ahead past "struct Name".
		if p.peek().Kind == token.Ident {
			if k := p.tok(2).Kind; k == token.LBrace || k == token.Semi {
				return p.parseStructDecl()
			}
		} else if p.peek().Kind == token.LBrace {
			return p.errorf("anonymous struct types are not supported")
		}
	case token.KwEnum:
		return p.parseEnumDecl()
	}

	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}

	// First declarator decides function vs variables.
	name, typ, pos, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if typ.Kind == types.Func && (p.at(token.LBrace) || p.at(token.Semi)) {
		return p.parseFuncRest(name, typ, pos)
	}

	// Variable declaration list.
	for {
		vd := &ast.VarDecl{P: pos, Name: name, Type: typ}
		if p.accept(token.Assign) {
			init, err := p.parseInitializer()
			if err != nil {
				return err
			}
			if list, ok := init.(*ast.ListExpr); ok {
				vd.InitList = list.Elems
			} else {
				vd.Init = init
			}
		}
		p.file.Globals = append(p.file.Globals, vd)
		p.file.Decls = append(p.file.Decls, vd)
		if !p.accept(token.Comma) {
			break
		}
		name, typ, pos, err = p.parseDeclarator(base)
		if err != nil {
			return err
		}
	}
	return p.expect(token.Semi)
}

func (p *Parser) parseStructDecl() error {
	pos := p.cur().Pos
	p.next() // struct
	name, err := p.ident()
	if err != nil {
		return err
	}
	st, exists := p.structs[name]
	if !exists {
		st = &types.Type{Kind: types.Struct, StructName: name}
		p.structs[name] = st
	}
	if p.accept(token.Semi) {
		// Forward declaration.
		return nil
	}
	if err := p.expect(token.LBrace); err != nil {
		return err
	}
	if len(st.Fields) > 0 {
		return p.errorAt(pos, "struct %s redefined", name)
	}
	for !p.at(token.RBrace) {
		base, err := p.parseTypeSpec()
		if err != nil {
			return err
		}
		for {
			fname, ftype, fpos, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			if ftype.Kind == types.Func {
				return p.errorAt(fpos, "function fields are not supported")
			}
			// A by-value field needs its struct complete before this
			// one is laid out; that also rules out st itself.
			elem := ftype
			for elem.Kind == types.Array {
				elem = elem.Elem
			}
			if elem.Kind == types.Struct && (elem == st || len(elem.Fields) == 0) {
				return p.errorAt(fpos, "field %s has incomplete struct type %s", fname, elem)
			}
			st.Fields = append(st.Fields, types.Field{Name: fname, Type: ftype})
			if !p.accept(token.Comma) {
				break
			}
		}
		if err := p.expect(token.Semi); err != nil {
			return err
		}
	}
	p.next() // }
	if err := p.expect(token.Semi); err != nil {
		return err
	}
	st.LayOut()
	if st.Size() > types.MaxSize {
		return p.errorAt(pos, "struct %s is larger than %d bytes", name, types.MaxSize)
	}
	sd := &ast.StructDecl{P: pos, Name: name, Type: st}
	p.file.Structs = append(p.file.Structs, sd)
	p.file.Decls = append(p.file.Decls, sd)
	return nil
}

func (p *Parser) parseEnumDecl() error {
	pos := p.cur().Pos
	p.next() // enum
	if p.at(token.Ident) {
		p.next() // tag name, ignored
	}
	if err := p.expect(token.LBrace); err != nil {
		return err
	}
	ed := &ast.EnumDecl{P: pos}
	var val int64
	for !p.at(token.RBrace) {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if p.accept(token.Assign) {
			v, err := p.parseConstIntExpr()
			if err != nil {
				return err
			}
			val = v
		}
		ed.Names = append(ed.Names, name)
		ed.Vals = append(ed.Vals, val)
		val++
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.RBrace); err != nil {
		return err
	}
	if err := p.expect(token.Semi); err != nil {
		return err
	}
	p.file.Enums = append(p.file.Enums, ed)
	p.file.Decls = append(p.file.Decls, ed)
	return nil
}

// parseConstIntExpr parses and folds a constant integer expression as
// far as enum initializers need (literals, optionally negated).
func (p *Parser) parseConstIntExpr() (int64, error) {
	neg := p.accept(token.Minus)
	v := p.cur().Int
	if err := p.expect(token.IntLit); err != nil {
		return 0, err
	}
	if neg {
		return -v, nil
	}
	return v, nil
}

func (p *Parser) parseFuncRest(name string, sig *types.Type, pos token.Pos) error {
	fd := &ast.FuncDecl{P: pos, Name: name, Result: sig.Elem}
	for i, pt := range sig.Params {
		pn := ""
		if i < len(p.paramNames) {
			pn = p.paramNames[i]
		}
		fd.Params = append(fd.Params, &ast.ParamDecl{P: pos, Name: pn, Type: pt})
	}
	if p.accept(token.Semi) {
		// Prototype only.
		fd.Body = nil
		p.file.Funcs = append(p.file.Funcs, fd)
		p.file.Decls = append(p.file.Decls, fd)
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	p.file.Funcs = append(p.file.Funcs, fd)
	p.file.Decls = append(p.file.Decls, fd)
	return nil
}

// ---------- Types and declarators ----------

// parseTypeSpec parses a base type: void/char/int/long/double,
// struct name, with const/unsigned accepted and ignored.
func (p *Parser) parseTypeSpec() (*types.Type, error) {
	for p.accept(token.KwConst) || p.accept(token.KwUnsigned) || p.accept(token.KwStatic) || p.accept(token.KwExtern) {
	}
	switch p.cur().Kind {
	case token.KwVoid:
		p.next()
		return types.VoidType, nil
	case token.KwChar:
		p.next()
		p.accept(token.KwConst)
		return types.CharType, nil
	case token.KwInt:
		p.next()
		return types.IntType, nil
	case token.KwLong:
		p.next()
		p.accept(token.KwInt)  // "long int"
		p.accept(token.KwLong) // "long long"
		p.accept(token.KwInt)
		return types.LongType, nil
	case token.KwDouble:
		p.next()
		return types.DoubleType, nil
	case token.KwStruct:
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[name]
		if !ok {
			st = &types.Type{Kind: types.Struct, StructName: name}
			p.structs[name] = st
		}
		return st, nil
	case token.KwEnum:
		p.next()
		if p.at(token.Ident) {
			p.next()
		}
		return types.IntType, nil
	default:
		// "unsigned" or "const" alone means int.
		return types.IntType, nil
	}
}

// declPart is an intermediate declarator component built inside-out.
type declPart struct {
	kind     byte // '*' pointer, '[' array, '(' function
	arrayLen int
	params   []*types.Type
	names    []string
	variadic bool
}

// parseDeclarator parses a C declarator against the given base type
// and returns the declared name and full type. It also records
// parameter names (for function declarators) in p.paramNames.
func (p *Parser) parseDeclarator(base *types.Type) (string, *types.Type, token.Pos, error) {
	pos := p.cur().Pos
	name, typ, err := p.declarator(base)
	return name, typ, pos, err
}

// declarator parses: pointer* direct-declarator.
func (p *Parser) declarator(base *types.Type) (string, *types.Type, error) {
	for p.accept(token.Star) {
		p.accept(token.KwConst)
		base = types.PointerTo(base)
	}
	return p.directDeclarator(base)
}

// directDeclarator parses: (declarator) | ident, then [n] / (params)
// suffixes. The inner declarator in parentheses binds tighter, so the
// suffixes apply to the base first, then the inner wrapping.
func (p *Parser) directDeclarator(base *types.Type) (string, *types.Type, error) {
	if p.accept(token.LParen) {
		// Parenthesized declarator (e.g. int (*fp)(int)). Parse the
		// inner declarator with a placeholder, apply suffixes to the
		// base, then substitute.
		placeholder := &types.Type{Kind: types.Void}
		name, inner, err := p.declarator(placeholder)
		if err != nil {
			return "", nil, err
		}
		if err := p.expect(token.RParen); err != nil {
			return "", nil, err
		}
		full, err := p.declaratorSuffixes(base)
		if err != nil {
			return "", nil, err
		}
		return name, substitute(inner, placeholder, full), nil
	}
	name, err := p.ident()
	if err != nil {
		return "", nil, err
	}
	typ, err := p.declaratorSuffixes(base)
	if err != nil {
		return "", nil, err
	}
	return name, typ, nil
}

// substitute replaces the placeholder leaf in t with repl, returning
// the rebuilt type.
func substitute(t, placeholder, repl *types.Type) *types.Type {
	if t == placeholder {
		return repl
	}
	switch t.Kind {
	case types.Pointer:
		return types.PointerTo(substitute(t.Elem, placeholder, repl))
	case types.Array:
		return types.ArrayOf(substitute(t.Elem, placeholder, repl), t.ArrayLen)
	case types.Func:
		return types.FuncOf(substitute(t.Elem, placeholder, repl), t.Params, t.Variadic)
	}
	return t
}

func (p *Parser) declaratorSuffixes(base *types.Type) (*types.Type, error) {
	switch p.cur().Kind {
	case token.LBracket:
		pos := p.cur().Pos
		n, err := p.arrayLen()
		if err != nil {
			return nil, err
		}
		elem, err := p.declaratorSuffixes(base)
		if err != nil {
			return nil, err
		}
		return p.arrayOf(elem, n, pos)
	case token.LParen:
		p.next()
		params, names, variadic, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		p.paramNames = names
		return types.FuncOf(base, params, variadic), nil
	}
	return base, nil
}

// arrayLen parses "[n]", or "[]" for an array an initializer sizes
// later (length 0).
func (p *Parser) arrayLen() (int64, error) {
	p.next() // [
	var n int64
	if !p.at(token.RBracket) {
		v, err := p.parseConstIntExpr()
		if err != nil {
			return 0, err
		}
		n = v
	}
	return n, p.expect(token.RBracket)
}

// arrayOf returns the type "array of n elem" declared at pos, rejecting
// a negative length or an array larger than types.MaxSize bytes.
func (p *Parser) arrayOf(elem *types.Type, n int64, pos token.Pos) (*types.Type, error) {
	if n < 0 {
		return nil, p.errorAt(pos, "array size %d is negative", n)
	}
	if sz := int64(elem.Size()); sz > 0 && n > types.MaxSize/sz {
		return nil, p.errorAt(pos, "array of %d %s is larger than %d bytes", n, elem, types.MaxSize)
	}
	return types.ArrayOf(elem, int(n)), nil
}

func (p *Parser) parseParams() ([]*types.Type, []string, bool, error) {
	var params []*types.Type
	var names []string
	variadic := false
	if p.accept(token.RParen) {
		return nil, nil, false, nil
	}
	if p.at(token.KwVoid) && p.peek().Kind == token.RParen {
		p.next()
		p.next()
		return nil, nil, false, nil
	}
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, nil, false, err
		}
		name := ""
		typ := base
		for p.accept(token.Star) {
			p.accept(token.KwConst)
			typ = types.PointerTo(typ)
		}
		if p.at(token.Ident) {
			saved := p.paramNames
			var err error
			name, typ, err = p.directDeclarator(typ)
			p.paramNames = saved
			if err != nil {
				return nil, nil, false, err
			}
		} else if p.at(token.LParen) {
			// Unnamed function-pointer parameter.
			saved := p.paramNames
			var err error
			name, typ, err = p.directDeclarator(typ)
			p.paramNames = saved
			if err != nil {
				return nil, nil, false, err
			}
		} else if p.at(token.LBracket) {
			var err error
			typ, err = p.declaratorSuffixes(typ)
			if err != nil {
				return nil, nil, false, err
			}
		}
		// Array parameters decay to pointers.
		if typ.Kind == types.Array {
			typ = types.PointerTo(typ.Elem)
		}
		// Function parameters decay to function pointers.
		if typ.Kind == types.Func {
			typ = types.PointerTo(typ)
		}
		params = append(params, typ)
		names = append(names, name)
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, nil, false, err
	}
	return params, names, variadic, nil
}

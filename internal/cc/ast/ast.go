// Package ast defines the abstract syntax tree for the C subset. The
// parser produces it; sema annotates it with types and symbols; irgen
// lowers it to IL.
package ast

import (
	"regpromo/internal/cc/token"
	"regpromo/internal/cc/types"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------- Expressions ----------

// Expr is an expression node. After sema, Type() reports the
// expression's C type.
type Expr interface {
	Node
	Type() *types.Type
	setType(*types.Type)
}

type exprBase struct {
	P token.Pos
	T *types.Type
}

func (e *exprBase) Pos() token.Pos        { return e.P }
func (e *exprBase) Type() *types.Type     { return e.T }
func (e *exprBase) setType(t *types.Type) { e.T = t }

// SetPos records the node's source position (used by the parser).
func (e *exprBase) SetPos(p token.Pos) { e.P = p }

// SetType annotates e with its type (used by sema).
func SetType(e Expr, t *types.Type) { e.setType(t) }

// IntLit is an integer or character constant.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a double constant.
type FloatLit struct {
	exprBase
	Value float64
}

// StringLit is a string constant; sema assigns it a global tag.
type StringLit struct {
	exprBase
	Value string
	// Index is filled by sema: which string-pool entry this is.
	Index int
}

// Ident is a name use. Sym is resolved by sema.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// Unary is a prefix operator: - ! ~ * & ++ --.
type Unary struct {
	exprBase
	Op token.Kind
	X  Expr
}

// Postfix is a postfix ++ or --.
type Postfix struct {
	exprBase
	Op token.Kind
	X  Expr
}

// Binary is an infix operator (arithmetic, comparison, logical,
// bitwise).
type Binary struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// Assign is an assignment, possibly compound (+= etc.; Op == Assign
// for plain =).
type Assign struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// Cond is the ?: operator.
type Cond struct {
	exprBase
	C, X, Y Expr
}

// Index is X[I].
type Index struct {
	exprBase
	X, I Expr
}

// Call is a function call; Fun is an Ident naming a function or an
// expression of function-pointer type.
type Call struct {
	exprBase
	Fun  Expr
	Args []Expr
}

// Member is X.Name (Arrow false) or X->Name (Arrow true).
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	// Field is resolved by sema.
	Field types.Field
}

// SizeofExpr is sizeof(type) or sizeof expr; sema folds it to a
// constant size.
type SizeofExpr struct {
	exprBase
	// Arg is nil when OfType is set.
	Arg    Expr
	OfType *types.Type
	Size   int
}

// Cast is an explicit conversion (T)X.
type Cast struct {
	exprBase
	To *types.Type
	X  Expr
}

// ListExpr is a brace-enclosed initializer list; it appears only as a
// VarDecl initializer (possibly nested) and never has a type of its
// own.
type ListExpr struct {
	exprBase
	Elems []Expr
}

// ---------- Statements ----------

// Stmt is a statement node.
type Stmt interface{ Node }

type stmtBase struct{ P token.Pos }

func (s *stmtBase) Pos() token.Pos { return s.P }

// SetPos records the node's source position (used by the parser).
func (s *stmtBase) SetPos(p token.Pos) { s.P = p }

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// Block is { ... }.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// If is if/else.
type If struct {
	stmtBase
	Cond       Expr
	Then, Else Stmt // Else may be nil
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhile is a do/while loop.
type DoWhile struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// For is a for loop; Init/Cond/Post may be nil. Init may be a
// DeclStmt or ExprStmt.
type For struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns Value (may be nil).
type Return struct {
	stmtBase
	Value Expr
}

// Break exits the innermost loop.
type Break struct{ stmtBase }

// Continue advances the innermost loop.
type Continue struct{ stmtBase }

// Empty is ";".
type Empty struct{ stmtBase }

// ---------- Declarations ----------

// SymbolKind classifies a resolved symbol.
type SymbolKind int

const (
	SymGlobal SymbolKind = iota
	SymLocal
	SymParam
	SymFunc
	SymEnumConst
)

// Symbol is a resolved name. sema creates one per declaration.
type Symbol struct {
	Kind SymbolKind
	Name string
	Type *types.Type

	// AddrTaken is set when & is applied to the symbol, or when it
	// is an array/struct (whose uses are address computations).
	AddrTaken bool

	// EnumValue is the value of a SymEnumConst.
	EnumValue int64

	// Func is the owning function for locals and params.
	Func *FuncDecl

	// Uniq is a per-function unique id assigned by sema (used to
	// name tags for shadowed locals distinctly).
	Uniq int
}

// VarDecl is one declared variable (global or local).
type VarDecl struct {
	P    token.Pos
	Name string
	Type *types.Type
	// Init is the initializer expression, or nil. Aggregate
	// initializers use InitList.
	Init Expr
	// InitList holds brace-initializer elements for arrays and
	// structs.
	InitList []Expr
	// Sym is filled by sema.
	Sym *Symbol
}

func (d *VarDecl) Pos() token.Pos { return d.P }

// ParamDecl is one function parameter.
type ParamDecl struct {
	P    token.Pos
	Name string
	Type *types.Type
	Sym  *Symbol
}

func (d *ParamDecl) Pos() token.Pos { return d.P }

// FuncDecl is a function definition or prototype (Body nil).
type FuncDecl struct {
	P      token.Pos
	Name   string
	Result *types.Type
	Params []*ParamDecl
	Body   *Block
	Sym    *Symbol

	// Locals collects every local VarDecl in the body, filled by
	// sema, for frame layout.
	Locals []*VarDecl
}

func (d *FuncDecl) Pos() token.Pos { return d.P }

// StructDecl declares a struct type.
type StructDecl struct {
	P    token.Pos
	Name string
	Type *types.Type
}

func (d *StructDecl) Pos() token.Pos { return d.P }

// EnumDecl declares enumeration constants.
type EnumDecl struct {
	P     token.Pos
	Names []string
	Vals  []int64
}

func (d *EnumDecl) Pos() token.Pos { return d.P }

// File is one translation unit.
type File struct {
	Name string
	// Source is the line table every node's Pos resolves against.
	Source  *token.File
	Globals []*VarDecl
	Funcs   []*FuncDecl
	Structs []*StructDecl
	Enums   []*EnumDecl
	// Decls preserves top-level declaration order for diagnostics.
	Decls []Node
}

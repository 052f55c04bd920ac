// Package token defines the lexical tokens of the C subset accepted by
// the front end.
package token

import (
	"fmt"
	"math"
	"sort"
)

// Kind identifies a token class.
type Kind int32

const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit

	// Keywords.
	KwBreak
	KwChar
	KwConst
	KwContinue
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFor
	KwIf
	KwInt
	KwLong
	KwReturn
	KwSizeof
	KwStatic
	KwStruct
	KwUnsigned
	KwVoid
	KwWhile

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Arrow    // ->
	Ellipsis // ...

	Assign     // =
	PlusAssign // +=
	MinusAssign
	StarAssign
	SlashAssign
	PercentAssign
	ShlAssign
	ShrAssign
	AndAssign
	OrAssign
	XorAssign

	Question // ?
	Colon    // :

	OrOr   // ||
	AndAnd // &&
	Or     // |
	Xor    // ^
	And    // &
	Eq     // ==
	NotEq  // !=
	Lt     // <
	Le     // <=
	Gt     // >
	Ge     // >=
	Shl    // <<
	Shr    // >>
	Plus   // +
	Minus  // -
	Star   // *
	Slash  // /
	Percent
	Not   // !
	Tilde // ~
	Inc   // ++
	Dec   // --

	// NumKinds is the number of token kinds; it is not a kind. Tables
	// indexed by Kind are this long.
	NumKinds
)

var names = [NumKinds]string{
	EOF: "EOF", Ident: "identifier", IntLit: "integer literal",
	FloatLit: "float literal", CharLit: "char literal", StringLit: "string literal",
	KwBreak: "break", KwChar: "char", KwConst: "const", KwContinue: "continue",
	KwDo: "do", KwDouble: "double", KwElse: "else", KwEnum: "enum",
	KwExtern: "extern", KwFor: "for", KwIf: "if", KwInt: "int", KwLong: "long",
	KwReturn: "return", KwSizeof: "sizeof", KwStatic: "static",
	KwStruct: "struct", KwUnsigned: "unsigned", KwVoid: "void", KwWhile: "while",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[",
	RBracket: "]", Semi: ";", Comma: ",", Dot: ".", Arrow: "->", Ellipsis: "...",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=", PercentAssign: "%=", ShlAssign: "<<=", ShrAssign: ">>=",
	AndAssign: "&=", OrAssign: "|=", XorAssign: "^=",
	Question: "?", Colon: ":", OrOr: "||", AndAnd: "&&", Or: "|", Xor: "^",
	And: "&", Eq: "==", NotEq: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Shl: "<<", Shr: ">>", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Not: "!", Tilde: "~", Inc: "++", Dec: "--",
}

func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup returns the keyword kind an identifier spelling names, or
// Ident. A string switch compiles to a search on length and bytes,
// which beats hashing every identifier into a map.
func Lookup(ident string) Kind {
	switch ident {
	case "break":
		return KwBreak
	case "char":
		return KwChar
	case "const":
		return KwConst
	case "continue":
		return KwContinue
	case "do":
		return KwDo
	case "double":
		return KwDouble
	case "else":
		return KwElse
	case "enum":
		return KwEnum
	case "extern":
		return KwExtern
	case "for":
		return KwFor
	case "if":
		return KwIf
	case "int":
		return KwInt
	case "long":
		return KwLong
	case "return":
		return KwReturn
	case "sizeof":
		return KwSizeof
	case "static":
		return KwStatic
	case "struct":
		return KwStruct
	case "unsigned":
		return KwUnsigned
	case "void":
		return KwVoid
	case "while":
		return KwWhile
	}
	return Ident
}

// Pos is a byte offset into one source file. It holds no pointer and
// no line number: the File the source was scanned into resolves it to
// a Position when a diagnostic needs one, as go/token does.
type Pos int32

// MaxSize is the largest source, in bytes, a Pos can address.
const MaxSize = math.MaxInt32

// File is one source file's name and line table. The lexer records
// the offset of every line start as it scans, so a File resolves any
// position it has scanned past.
type File struct {
	name  string
	lines []int32 // offsets of line starts; lines[0] is 0
}

// NewFile returns the line table of a file with the given name,
// holding its first line.
func NewFile(name string) *File {
	return &File{name: name, lines: []int32{0}}
}

// AddLine records that a line starts at byte offset off. Offsets must
// arrive in increasing order.
func (f *File) AddLine(off int) {
	f.lines = append(f.lines, int32(off))
}

// Position resolves p to its file, line and byte-based column.
func (f *File) Position(p Pos) Position {
	i := sort.Search(len(f.lines), func(i int) bool { return f.lines[i] > int32(p) }) - 1
	return Position{File: f.name, Line: i + 1, Col: int(int32(p)-f.lines[i]) + 1}
}

// Position is a resolved source position. Line and Col count from 1;
// Col counts bytes, so a tab is one column.
type Position struct {
	File string
	Line int
	Col  int
}

func (p Position) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is one lexical token: 32 bytes, whose only pointer is Text's.
type Token struct {
	Kind Kind
	Pos  Pos

	// Text is the identifier or literal spelling; for a StringLit it
	// is the decoded value (escapes processed, no terminating NUL).
	Text string
	// Int is the decoded value of IntLit and CharLit tokens, and the
	// IEEE 754 bits of a FloatLit's value (see Float).
	Int int64
}

// Float is the decoded value of a FloatLit token.
func (t Token) Float() float64 { return math.Float64frombits(uint64(t.Int)) }

func (t Token) String() string {
	switch t.Kind {
	case Ident:
		return t.Text
	case IntLit:
		return fmt.Sprintf("%d", t.Int)
	case FloatLit:
		return fmt.Sprintf("%g", t.Float())
	case CharLit:
		return fmt.Sprintf("%q", rune(t.Int))
	case StringLit:
		return fmt.Sprintf("%q", t.Text)
	}
	return t.Kind.String()
}

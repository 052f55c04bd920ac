// Package types implements the C subset's type system: void, char,
// int, long, double, pointers, fixed-size arrays, structs, and
// function types. char is 1 byte, int is 4, long and double are 8, and
// pointers are 8.
package types

import (
	"fmt"
	"strings"
)

// Kind classifies a type.
type Kind int

const (
	Void Kind = iota
	Char
	Int
	Long
	Double
	Pointer
	Array
	Struct
	Func
)

// Type is a C type. Types are compared structurally except structs,
// which compare by identity (name).
type Type struct {
	Kind Kind

	// Elem is the pointee for Pointer, the element for Array, and
	// the result for Func.
	Elem *Type

	// ArrayLen is the constant element count for Array.
	ArrayLen int

	// StructName and Fields describe Struct types.
	StructName string
	Fields     []Field

	// Params describes Func parameter types; Variadic marks a
	// trailing "...".
	Params   []*Type
	Variadic bool
}

// Field is one struct member with its computed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset int
}

// Predefined basic types. Basic types are shared singletons so
// pointer equality works for them.
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Char}
	IntType    = &Type{Kind: Int}
	LongType   = &Type{Kind: Long}
	DoubleType = &Type{Kind: Double}
)

// MaxSize bounds the byte size of any array or struct type the front
// end accepts. The compiler materializes an initialized global's bytes
// and the interpreters lay all globals out in one buffer, so a larger
// object would only exhaust memory.
const MaxSize = 1 << 28

// PointerTo returns the type "pointer to t".
func PointerTo(t *Type) *Type { return &Type{Kind: Pointer, Elem: t} }

// ArrayOf returns the type "array of n t".
func ArrayOf(t *Type, n int) *Type {
	return &Type{Kind: Array, Elem: t, ArrayLen: n}
}

// FuncOf returns a function type.
func FuncOf(result *Type, params []*Type, variadic bool) *Type {
	return &Type{Kind: Func, Elem: result, Params: params, Variadic: variadic}
}

// Size returns the byte size of t; struct sizes include padding for
// field alignment. Function and void types have size 0.
func (t *Type) Size() int {
	switch t.Kind {
	case Void, Func:
		return 0
	case Char:
		return 1
	case Int:
		return 4
	case Long, Double, Pointer:
		return 8
	case Array:
		return t.ArrayLen * t.Elem.Size()
	case Struct:
		if len(t.Fields) == 0 {
			return 0
		}
		last := t.Fields[len(t.Fields)-1]
		return align(last.Offset+last.Type.Size(), t.Align())
	}
	return 0
}

// Align returns the alignment of t in bytes.
func (t *Type) Align() int {
	switch t.Kind {
	case Char:
		return 1
	case Int:
		return 4
	case Long, Double, Pointer:
		return 8
	case Array:
		return t.Elem.Align()
	case Struct:
		a := 1
		for _, f := range t.Fields {
			if fa := f.Type.Align(); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

func align(off, a int) int {
	if a <= 1 {
		return off
	}
	return (off + a - 1) / a * a
}

// LayOut assigns field offsets for a struct type.
func (t *Type) LayOut() {
	off := 0
	for i := range t.Fields {
		f := &t.Fields[i]
		off = align(off, f.Type.Align())
		f.Offset = off
		off += f.Type.Size()
	}
}

// FieldByName returns the named field.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// IsInteger reports whether t is char, int, or long.
func (t *Type) IsInteger() bool {
	return t.Kind == Char || t.Kind == Int || t.Kind == Long
}

// IsArith reports whether t is an arithmetic type.
func (t *Type) IsArith() bool { return t.IsInteger() || t.Kind == Double }

// IsScalar reports whether t is arithmetic or a pointer: a value that
// fits in one register and can appear in conditions.
func (t *Type) IsScalar() bool { return t.IsArith() || t.Kind == Pointer }

// Equal reports structural type equality (structs by name).
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Void, Char, Int, Long, Double:
		return true
	case Pointer:
		return Equal(a.Elem, b.Elem)
	case Array:
		return a.ArrayLen == b.ArrayLen && Equal(a.Elem, b.Elem)
	case Struct:
		return a.StructName == b.StructName
	case Func:
		if !Equal(a.Elem, b.Elem) || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func (t *Type) String() string {
	switch t.Kind {
	case Void:
		return "void"
	case Char:
		return "char"
	case Int:
		return "int"
	case Long:
		return "long"
	case Double:
		return "double"
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		return fmt.Sprintf("%s[%d]", t.Elem, t.ArrayLen)
	case Struct:
		return "struct " + t.StructName
	case Func:
		parts := make([]string, len(t.Params))
		for i, p := range t.Params {
			parts[i] = p.String()
		}
		if t.Variadic {
			parts = append(parts, "...")
		}
		return fmt.Sprintf("%s(%s)", t.Elem, strings.Join(parts, ","))
	}
	return "?"
}

// Package ir implements a typed, LLVM-flavoured intermediate representation:
// interned types, SSA values, instructions grouped into basic blocks and
// functions, modules, a textual format with printer and parser, a verifier,
// dominator trees and a function cloner.
//
// The IR is the substrate on which the function-merging optimization from
// "Function Merging by Sequence Alignment" (Rocha et al., CGO 2019) operates.
// It deliberately mirrors the granularity of LLVM IR: a few tens of opcodes,
// structural types, explicit basic blocks and use-def chains.
package ir

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// TypeKind discriminates the structural kinds of IR types.
type TypeKind int

// Type kinds.
const (
	VoidKind TypeKind = iota
	IntKind
	FloatKind
	PointerKind
	ArrayKind
	StructKind
	FuncKind
	LabelKind
	TokenKind // result of landingpad instructions
)

// Type is an interned IR type. Two types are equal if and only if their
// pointers are equal; obtain types through Void, Int, Float, PointerTo,
// ArrayOf, StructOf and FuncOf.
type Type struct {
	Kind TypeKind
	// Bits is the width for IntKind (1..64) and FloatKind (32 or 64).
	Bits int
	// Elem is the element type for PointerKind and ArrayKind.
	Elem *Type
	// Len is the element count for ArrayKind.
	Len int
	// Fields are the member types for StructKind and the parameter types
	// for FuncKind.
	Fields []*Type
	// Ret is the return type for FuncKind.
	Ret *Type
	// Variadic marks a FuncKind type as variadic.
	Variadic bool

	str         string               // cached textual form
	contentHash atomic.Uint64        // cached ContentHash (0 = not yet computed)
	ptrTo       atomic.Pointer[Type] // cached PointerTo(t) (nil = not yet built)
}

var (
	internMu  sync.Mutex
	internTab = map[string]*Type{}
	internKey []byte // intern's spelling scratch, guarded by internMu

	voidType  = &Type{Kind: VoidKind, str: "void"}
	labelType = &Type{Kind: LabelKind, str: "label"}
	tokenType = &Type{Kind: TokenKind, str: "token"}

	// intTypes[b] is the interned b-bit integer type (index 0 is unused);
	// f32Type and f64Type are the interned float types. Int and Float are
	// array loads with no lock.
	intTypes = func() (ts [65]*Type) {
		for b := 1; b <= 64; b++ {
			ts[b] = intern(&Type{Kind: IntKind, Bits: b})
		}
		return ts
	}()
	f32Type = intern(&Type{Kind: FloatKind, Bits: 32})
	f64Type = intern(&Type{Kind: FloatKind, Bits: 64})
)

// intern returns the one *Type spelled like proto, creating it from proto's
// shape when the spelling is new. proto itself is never retained, so
// callers pass a stack literal and a hit allocates nothing.
//
// Every type a constructor hands out is the interned pointer for its
// spelling: the scalar arrays (intTypes, f32Type, f64Type) are filled from
// intern before any constructor can run, and the pointer type cached on an
// element (Type.ptrTo) is the value intern returned for it. Pointer equality
// is therefore type equality however a type was obtained.
func intern(proto *Type) *Type {
	internMu.Lock()
	defer internMu.Unlock()
	internKey = proto.appendSpelling(internKey[:0])
	if got, ok := internTab[string(internKey)]; ok {
		return got
	}
	t := &Type{Kind: proto.Kind, Bits: proto.Bits, Elem: proto.Elem, Len: proto.Len,
		Ret: proto.Ret, Variadic: proto.Variadic, str: string(internKey)}
	if proto.Kind == StructKind || proto.Kind == FuncKind {
		t.Fields = make([]*Type, len(proto.Fields))
		copy(t.Fields, proto.Fields)
	}
	internTab[t.str] = t
	return t
}

// Void returns the void type.
func Void() *Type { return voidType }

// Label returns the label type carried by basic-block values.
func Label() *Type { return labelType }

// Token returns the token type produced by landingpad instructions.
func Token() *Type { return tokenType }

// Int returns the integer type of the given bit width (1..64).
func Int(bits int) *Type {
	if bits < 1 || bits > 64 {
		panic("ir: invalid integer width " + strconv.Itoa(bits))
	}
	return intTypes[bits]
}

// Bool returns the 1-bit integer type.
func Bool() *Type { return intTypes[1] }

// I8 returns the 8-bit integer type.
func I8() *Type { return intTypes[8] }

// I16 returns the 16-bit integer type.
func I16() *Type { return intTypes[16] }

// I32 returns the 32-bit integer type.
func I32() *Type { return intTypes[32] }

// I64 returns the 64-bit integer type.
func I64() *Type { return intTypes[64] }

// Float returns the floating-point type of the given width (32 or 64).
func Float(bits int) *Type {
	switch bits {
	case 32:
		return f32Type
	case 64:
		return f64Type
	}
	panic("ir: invalid float width " + strconv.Itoa(bits))
}

// F32 returns the 32-bit floating-point type.
func F32() *Type { return f32Type }

// F64 returns the 64-bit floating-point type.
func F64() *Type { return f64Type }

// PointerTo returns the pointer type with element type elem. The result is
// cached on elem, so only the first call per element type interns.
func PointerTo(elem *Type) *Type {
	if elem == nil {
		panic("ir: PointerTo(nil)")
	}
	if p := elem.ptrTo.Load(); p != nil {
		return p
	}
	p := intern(&Type{Kind: PointerKind, Elem: elem})
	elem.ptrTo.Store(p) // racing stores write the same interned pointer
	return p
}

// ArrayOf returns the array type with n elements of type elem.
func ArrayOf(n int, elem *Type) *Type {
	if n < 0 || elem == nil {
		panic("ir: invalid array type")
	}
	return intern(&Type{Kind: ArrayKind, Len: n, Elem: elem})
}

// StructOf returns the struct type with the given field types.
func StructOf(fields ...*Type) *Type {
	return intern(&Type{Kind: StructKind, Fields: fields})
}

// FuncOf returns the function type with the given return and parameter types.
func FuncOf(ret *Type, params ...*Type) *Type {
	return intern(&Type{Kind: FuncKind, Ret: ret, Fields: params})
}

// VarFuncOf returns a variadic function type.
func VarFuncOf(ret *Type, params ...*Type) *Type {
	return intern(&Type{Kind: FuncKind, Ret: ret, Fields: params, Variadic: true})
}

// appendSpelling appends the textual form of t, built from its parts.
func (t *Type) appendSpelling(dst []byte) []byte {
	switch t.Kind {
	case VoidKind:
		return append(dst, "void"...)
	case LabelKind:
		return append(dst, "label"...)
	case TokenKind:
		return append(dst, "token"...)
	case IntKind:
		return strconv.AppendInt(append(dst, 'i'), int64(t.Bits), 10)
	case FloatKind:
		return strconv.AppendInt(append(dst, 'f'), int64(t.Bits), 10)
	case PointerKind:
		return append(append(dst, t.Elem.String()...), '*')
	case ArrayKind:
		dst = strconv.AppendInt(append(dst, '['), int64(t.Len), 10)
		dst = append(append(dst, " x "...), t.Elem.String()...)
		return append(dst, ']')
	case StructKind:
		return append(appendTypeList(append(dst, '{'), t.Fields, false), '}')
	case FuncKind:
		dst = append(append(dst, t.Ret.String()...), " ("...)
		return append(appendTypeList(dst, t.Fields, t.Variadic), ')')
	default:
		panic("ir: unknown type kind " + strconv.Itoa(int(t.Kind)))
	}
}

// appendTypeList appends ts comma-separated, then "..." when variadic.
func appendTypeList(dst []byte, ts []*Type, variadic bool) []byte {
	for i, f := range ts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, f.String()...)
	}
	if variadic {
		if len(ts) > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, "..."...)
	}
	return dst
}

// String returns the textual form of the type, e.g. "i32" or "{i32, f64}*".
func (t *Type) String() string {
	if t.str == "" {
		t.str = string(t.appendSpelling(nil))
	}
	return t.str
}

// ContentHash returns the FNV-1a hash of the type's canonical textual form
// (String()) — a process- and run-stable content identity that hashing-heavy
// consumers (the stable structural key, MinHash shingles) can use without
// re-walking the spelling. The hash is cached on the type after the first
// computation; the cache is safe for concurrent use.
func (t *Type) ContentHash() uint64 {
	if h := t.contentHash.Load(); h != 0 {
		return h
	}
	const offset, prime = 14695981039346656037, 1099511628211
	s := t.String()
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// A true hash of 0 (probability 2^-64) is simply never cached.
	t.contentHash.Store(h)
	return h
}

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t.Kind == VoidKind }

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t.Kind == IntKind }

// IsBool reports whether t is the 1-bit integer type.
func (t *Type) IsBool() bool { return t.Kind == IntKind && t.Bits == 1 }

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t.Kind == FloatKind }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == PointerKind }

// IsAggregate reports whether t is an array or struct type.
func (t *Type) IsAggregate() bool { return t.Kind == ArrayKind || t.Kind == StructKind }

// IsFirstClass reports whether a value of type t can be produced by an
// instruction or passed as an operand (everything except void and function
// types).
func (t *Type) IsFirstClass() bool {
	return t.Kind != VoidKind && t.Kind != FuncKind
}

// PointerSizeBits is the width of pointers on all modelled targets.
const PointerSizeBits = 64

// SizeBits returns the number of bits occupied by a value of type t in
// memory, with natural (packed-to-byte) layout. Void and label types have
// size zero.
func (t *Type) SizeBits() int {
	switch t.Kind {
	case VoidKind, LabelKind, TokenKind:
		return 0
	case IntKind, FloatKind:
		return t.Bits
	case PointerKind, FuncKind:
		return PointerSizeBits
	case ArrayKind:
		return t.Len * t.Elem.SizeBytes() * 8
	case StructKind:
		n := 0
		for _, f := range t.Fields {
			n += f.SizeBytes()
		}
		return n * 8
	default:
		panic("ir: unknown type kind")
	}
}

// SizeBytes returns the byte size of t, rounding sub-byte scalars up.
func (t *Type) SizeBytes() int {
	return (t.SizeBits() + 7) / 8
}

// FieldOffset returns the byte offset of field i in struct type t.
func (t *Type) FieldOffset(i int) int {
	if t.Kind != StructKind {
		panic("ir: FieldOffset on non-struct")
	}
	off := 0
	for j := 0; j < i; j++ {
		off += t.Fields[j].SizeBytes()
	}
	return off
}

// LosslesslyBitcastable reports whether values of type a can be bitcast to
// type b without loss of information, the type-equivalence relation used by
// the merger (paper §III-D): identical types, or scalar types of identical
// bit width, or pointer types (which always have the same representation).
func LosslesslyBitcastable(a, b *Type) bool {
	if a == b {
		return true
	}
	if a.IsPointer() && b.IsPointer() {
		return true
	}
	scalar := func(t *Type) bool { return t.IsInt() || t.IsFloat() || t.IsPointer() }
	if scalar(a) && scalar(b) && a.SizeBits() == b.SizeBits() {
		return true
	}
	return false
}

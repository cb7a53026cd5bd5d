package ir

import (
	"math"
	"strconv"
)

// Constant is implemented by compile-time constant values.
type Constant interface {
	Value
	isConstant()
}

// ConstInt is an integer constant. The value is stored sign-extended in V;
// the significant bits are the low Type().Bits bits.
type ConstInt struct {
	typ *Type
	V   int64
}

// NewConstInt returns an integer constant of type typ holding v truncated to
// the type's width.
func NewConstInt(typ *Type, v int64) *ConstInt {
	if !typ.IsInt() {
		panic("ir: NewConstInt with non-integer type")
	}
	return &ConstInt{typ: typ, V: truncSExt(v, typ.Bits)}
}

// True returns the i1 constant 1.
func True() *ConstInt { return NewConstInt(Bool(), 1) }

// False returns the i1 constant 0.
func False() *ConstInt { return NewConstInt(Bool(), 0) }

// truncSExt truncates v to bits and sign-extends back to 64 bits, producing
// the canonical representation of the constant.
func truncSExt(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return v << shift >> shift
}

// Type returns the constant's type.
func (c *ConstInt) Type() *Type { return c.typ }

// Ident returns the decimal form of the constant (true/false for i1).
func (c *ConstInt) Ident() string { return string(c.appendIdent(nil)) }

// appendIdent appends the spelling Ident returns.
func (c *ConstInt) appendIdent(dst []byte) []byte {
	if c.typ.Bits == 1 {
		if c.V != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	}
	return strconv.AppendInt(dst, c.V, 10)
}

func (c *ConstInt) isConstant() {}

// Uint returns the constant zero-extended to uint64.
func (c *ConstInt) Uint() uint64 {
	if c.typ.Bits >= 64 {
		return uint64(c.V)
	}
	mask := uint64(1)<<uint(c.typ.Bits) - 1
	return uint64(c.V) & mask
}

// IsZero reports whether the constant is zero.
func (c *ConstInt) IsZero() bool { return c.V == 0 }

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	typ *Type
	V   float64
}

// NewConstFloat returns a floating-point constant of type typ holding v.
// For f32 types, v is rounded to float32 precision.
func NewConstFloat(typ *Type, v float64) *ConstFloat {
	if !typ.IsFloat() {
		panic("ir: NewConstFloat with non-float type")
	}
	if typ.Bits == 32 {
		v = float64(float32(v))
	}
	return &ConstFloat{typ: typ, V: v}
}

// Type returns the constant's type.
func (c *ConstFloat) Type() *Type { return c.typ }

// Ident returns the textual form of the constant, always containing a '.',
// 'e', or special-value spelling so the parser can distinguish it from
// integers.
func (c *ConstFloat) Ident() string { return string(c.appendIdent(nil)) }

// appendIdent appends the spelling Ident returns.
func (c *ConstFloat) appendIdent(dst []byte) []byte {
	switch {
	case math.IsInf(c.V, 1):
		return append(dst, "+inf"...)
	case math.IsInf(c.V, -1):
		return append(dst, "-inf"...)
	case math.IsNaN(c.V):
		return append(dst, "nan"...)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, c.V, 'g', -1, 64)
	for _, r := range dst[start:] {
		if r == '.' || r == 'e' || r == 'E' {
			return dst
		}
	}
	return append(dst, ".0"...)
}

func (c *ConstFloat) isConstant() {}

// Undef is an undefined value of a given type, used for unused thunk
// arguments and void-returning merged functions.
type Undef struct {
	typ *Type
}

// NewUndef returns the undef value of type typ.
func NewUndef(typ *Type) *Undef { return &Undef{typ: typ} }

// Type returns the undef value's type.
func (u *Undef) Type() *Type { return u.typ }

// Ident returns "undef".
func (u *Undef) Ident() string { return "undef" }

func (u *Undef) isConstant() {}

// ConstNull is the null pointer constant of a given pointer type.
type ConstNull struct {
	typ *Type
}

// NewConstNull returns the null constant of pointer type typ.
func NewConstNull(typ *Type) *ConstNull {
	if !typ.IsPointer() {
		panic("ir: NewConstNull with non-pointer type")
	}
	return &ConstNull{typ: typ}
}

// Type returns the null constant's type.
func (c *ConstNull) Type() *Type { return c.typ }

// Ident returns "null".
func (c *ConstNull) Ident() string { return "null" }

func (c *ConstNull) isConstant() {}

// ConstantsEqual reports whether two values are identical constants. It is
// conservative: unknown value kinds compare unequal.
func ConstantsEqual(a, b Value) bool {
	switch x := a.(type) {
	case *ConstInt:
		y, ok := b.(*ConstInt)
		return ok && x.typ == y.typ && x.V == y.V
	case *ConstFloat:
		y, ok := b.(*ConstFloat)
		if !ok || x.typ != y.typ {
			return false
		}
		return x.V == y.V || (math.IsNaN(x.V) && math.IsNaN(y.V))
	case *Undef:
		y, ok := b.(*Undef)
		return ok && x.typ == y.typ
	case *ConstNull:
		y, ok := b.(*ConstNull)
		return ok && x.typ == y.typ
	default:
		return false
	}
}

// FormatConst renders a constant with its type, e.g. "i32 42".
func FormatConst(c Constant) string {
	return c.Type().String() + " " + c.Ident()
}

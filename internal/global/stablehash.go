// Package global implements two-round optimistic cross-TU merging in the
// style of the Optimistic Global Function Merger: round 1 computes a
// structurally-stable hash and a compact summary per translation unit,
// round 2 plans folds and merge pairs against the global summary table and
// commits them per TU without any other TU's body present. Results are
// bit-identical for any worker count — the plan is a pure function of the
// summaries, and summaries are order-free.
package global

import (
	"encoding/binary"
	"math"

	"fmsa/internal/ir"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 hashes a stable key: FNV-1a's xor-multiply round applied to 8-byte
// little-endian blocks instead of single bytes, with a final finalizer so
// block-local differences avalanche into the low bits too (a bare
// multiplicative chain only carries information upward). Eight bytes per
// multiply matters because keys are hashed twice per function on the warm
// path (once keying, once on lookup) over megabytes of corpus key bytes.
// Not interoperable with standard FNV-1a — the only on-disk carriers of
// these values are fmdb segments and .fmsum summaries, and both make the
// hash algorithm part of their format version (wire.DBVersion,
// wire.SumVersion): any change here must bump both so stale files are
// rejected instead of silently mis-comparing.
func fnv64(b []byte) uint64 {
	h := uint64(fnvOffset)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnvPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	// 64-bit finalizer (xorshift-multiply, splitmix64 style).
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// StableHash returns a position-independent structural hash of f's body:
// types by content (their canonical string form), local operands by
// definition index, and no dependence on the function's own name — two
// functions that differ only by name and local value names hash equal, in
// any translation unit and any process. The boolean mirrors the encode
// interner's fresh-code rule: when false (the function contains a phi or an
// invoke without a modeled landing pad), hash equality does NOT imply
// structural equality and the function must not fold.
func StableHash(f *ir.Func) (uint64, bool) {
	key, selfEq := AppendStableKey(nil, f)
	return fnv64(key), selfEq
}

// AppendStableKey appends f's canonical structural key to buf and reports
// whether key equality implies structural equality (see StableHash). Two
// definitions have equal keys iff they are column-for-column equivalent at
// the exact-operand level, which is strictly finer than the paper's §III-D
// instruction equivalence.
// HashStableKey condenses a key produced by AppendStableKey into the hash
// StableHash would return for the same function. Callers that need both the
// key bytes (for exact content comparison) and the hash (for table lookup)
// can build the key once and derive the hash from it.
func HashStableKey(key []byte) uint64 { return fnv64(key) }

// typeKeyHash is the per-type hash folded into stable keys: the FNV-1a of
// the type's canonical textual form, cached on the interned type itself —
// the keyer is on the warm-startup hot path (internal/simdb staleness checks
// key every definition of the corpus), so types must not be re-spelled or
// re-hashed per function.
func typeKeyHash(t *ir.Type) uint64 {
	if t == nil {
		return 0
	}
	return t.ContentHash()
}

func AppendStableKey(buf []byte, f *ir.Func) ([]byte, bool) {
	// Local definition indices: params first (their slice position, which is
	// Param.Index), then instructions in layout order, and blocks by layout
	// index — all via the IR's ordinal scratch slots, so keying a function
	// allocates nothing beyond the caller's buffer. (The keyer is the
	// warm-startup staleness check over every definition of a corpus; even
	// one small map per function sustains enough GC churn to rival the
	// recompute it is there to avoid.)
	f.NumberLocals()

	// Types — including the function's own signature type — enter the key as
	// their fixed-width cached content hash, not their spelling: the append
	// is branch-free (a uvarint of a 64-bit hash is a ten-iteration loop and
	// ten bytes), and the 2^-64 collision risk is the same one every other
	// type position in the key already carries.
	buf = append(buf, 'F')
	buf = binary.LittleEndian.AppendUint64(buf, typeKeyHash(f.Sig()))

	selfEq := true
	for _, b := range f.Blocks {
		buf = append(buf, 'B')
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpPhi:
				selfEq = false
			case ir.OpInvoke:
				lp := in.InvokeUnwind().Insts
				if len(lp) == 0 || lp[0].Op != ir.OpLandingPad {
					selfEq = false
				}
			}
			buf = append(buf, 'I', byte(in.Op))
			buf = binary.LittleEndian.AppendUint64(buf, typeKeyHash(in.Type()))
			switch in.Op {
			case ir.OpICmp, ir.OpFCmp:
				buf = append(buf, byte(in.Pred))
			case ir.OpAlloca:
				buf = binary.LittleEndian.AppendUint64(buf, typeKeyHash(in.Alloc))
			case ir.OpLandingPad:
				buf = binary.AppendUvarint(buf, uint64(len(in.Clauses)))
				for _, c := range in.Clauses {
					buf = binary.AppendUvarint(buf, uint64(len(c)))
					buf = append(buf, c...)
				}
			}
			buf = binary.AppendUvarint(buf, uint64(in.NumOperands()))
			for _, op := range in.Operands() {
				buf = appendOperand(buf, f, op)
			}
		}
	}
	return buf, selfEq
}

func appendOperand(buf []byte, f *ir.Func, op ir.Value) []byte {
	switch v := op.(type) {
	case nil:
		return append(buf, 'z')
	case *ir.Block:
		buf = append(buf, 'b')
		return binary.AppendUvarint(buf, uint64(v.LayoutOrd()))
	case *ir.Inst:
		buf = append(buf, 'l')
		return binary.AppendUvarint(buf, uint64(v.LocalOrd()))
	case *ir.Param:
		buf = append(buf, 'l')
		return binary.AppendUvarint(buf, uint64(v.Index))
	case *ir.Func:
		if v == f {
			// Self-reference: recursion hashes position-independently so
			// two structurally identical recursive functions still match.
			return append(buf, 's')
		}
		buf = append(buf, 'f')
		buf = binary.AppendUvarint(buf, uint64(len(v.Name())))
		return append(buf, v.Name()...)
	case *ir.Global:
		buf = append(buf, 'g')
		buf = binary.AppendUvarint(buf, uint64(len(v.Name())))
		return append(buf, v.Name()...)
	case *ir.ConstInt:
		buf = append(buf, 'c')
		buf = binary.LittleEndian.AppendUint64(buf, typeKeyHash(v.Type()))
		return binary.AppendUvarint(buf, uint64(v.V))
	case *ir.ConstFloat:
		buf = append(buf, 'd')
		buf = binary.LittleEndian.AppendUint64(buf, typeKeyHash(v.Type()))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.V))
	case *ir.Undef:
		buf = append(buf, 'u')
		return binary.LittleEndian.AppendUint64(buf, typeKeyHash(v.Type()))
	case *ir.ConstNull:
		buf = append(buf, 'n')
		return binary.LittleEndian.AppendUint64(buf, typeKeyHash(v.Type()))
	default:
		// Unknown value kind: poison the key so it never matches anything.
		return append(buf, 0xff)
	}
}

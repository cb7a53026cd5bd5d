package ir

import (
	"encoding/hex"
	"io"
	"strconv"
	"strings"
)

// namer assigns unique printable names to local values within a function.
// Anonymous values receive sequential numbers; explicitly named values keep
// their name unless it collides, in which case a numeric suffix is added.
type namer struct {
	names map[Value]string
	used  map[string]bool
	next  int
}

func newNamer() *namer {
	return &namer{names: map[Value]string{}, used: map[string]bool{}}
}

// reset forgets every name so the namer can serve the next function,
// keeping its map storage.
func (n *namer) reset() {
	clear(n.names)
	clear(n.used)
	n.next = 0
}

func (n *namer) assign(v Named) string {
	if s, ok := n.names[v]; ok {
		return s
	}
	want := v.Name()
	if want == "" {
		// Blocks need identifier-shaped names: bare numbers cannot appear
		// as label definitions in the textual syntax.
		want = strconv.Itoa(n.next)
		if _, isBlock := v.(*Block); isBlock {
			want = "bb" + want
		}
		n.next++
	}
	name := want
	for i := 1; n.used[name]; i++ {
		name = want + "." + strconv.Itoa(i)
	}
	n.used[name] = true
	n.names[v] = name
	return name
}

// appendRef appends the reference form of v: "%name" for locals, "@name"
// for symbols, the literal spelling for constants.
func (n *namer) appendRef(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case *Param:
		return append(append(dst, '%'), n.assign(x)...)
	case *Inst:
		return append(append(dst, '%'), n.assign(x)...)
	case *Block:
		return append(append(dst, '%'), n.assign(x)...)
	case *Func:
		return append(append(dst, '@'), x.name...)
	case *Global:
		return append(append(dst, '@'), x.name...)
	case *ConstInt:
		return x.appendIdent(dst)
	case *ConstFloat:
		return x.appendIdent(dst)
	default:
		return append(dst, v.Ident()...)
	}
}

// appendTypedRef appends an operand as "<type> <ref>", or "label %name" for
// a block.
func (n *namer) appendTypedRef(dst []byte, v Value) []byte {
	if b, ok := v.(*Block); ok {
		return append(append(dst, "label %"...), n.assign(b)...)
	}
	dst = append(append(dst, v.Type().String()...), ' ')
	return n.appendRef(dst, v)
}

// appendTypedRefs appends vs as comma-separated typed references.
func (n *namer) appendTypedRefs(dst []byte, vs ...Value) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = n.appendTypedRef(dst, v)
	}
	return dst
}

// FormatModule renders the module in the textual IR format accepted by
// ParseModule.
func FormatModule(m *Module) string {
	var sb strings.Builder
	PrintModule(&sb, m) // a strings.Builder never returns a write error
	return sb.String()
}

// printChunk is the size at which PrintModule hands its buffer to the
// writer: large enough that a file sees few writes, small enough that the
// buffer stays far below the module's text.
const printChunk = 64 << 10

// PrintModule writes the module's textual IR form to w, appending whole
// functions to one reused buffer and writing it whenever it passes
// printChunk, avoiding the one-large-string materialization of
// FormatModule. It returns the first write error encountered.
func PrintModule(w io.Writer, m *Module) error {
	var buf []byte
	if m.Name != "" {
		buf = append(append(append(buf, "; module "...), m.Name...), '\n')
	}
	for _, g := range m.Globals {
		buf = append(appendGlobal(buf, g), '\n')
	}
	if len(m.Globals) > 0 {
		buf = append(buf, '\n')
	}
	n := newNamer()
	for i, f := range m.Funcs {
		if i > 0 {
			buf = append(buf, '\n')
		}
		n.reset()
		buf = appendFunc(buf, f, n)
		if len(buf) >= printChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}

func appendGlobal(dst []byte, g *Global) []byte {
	dst = append(append(append(dst, '@'), g.name...), " = "...)
	if g.Linkage == InternalLinkage {
		dst = append(dst, "internal "...)
	}
	dst = append(append(dst, "global "...), g.ValueType().String()...)
	if g.Init == nil {
		return append(dst, " zeroinitializer"...)
	}
	dst = hex.AppendEncode(append(dst, " bytes \""...), g.Init)
	return append(dst, '"')
}

// FormatFunc renders a single function (definition or declaration).
func FormatFunc(f *Func) string { return string(appendFunc(nil, f, newNamer())) }

// appendFunc appends one function's textual form, naming its locals with n.
func appendFunc(dst []byte, f *Func, n *namer) []byte {
	sig := f.Sig()
	if f.IsDecl() {
		dst = append(dst, "declare "...)
	} else {
		dst = append(dst, "define "...)
		if f.Linkage == InternalLinkage {
			dst = append(dst, "internal "...)
		}
	}
	dst = append(append(append(dst, sig.Ret.String()...), " @"...), f.name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, p.Type().String()...)
		if !f.IsDecl() {
			dst = append(append(dst, " %"...), n.assign(p)...)
		}
	}
	if sig.Variadic {
		if len(f.Params) > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, "..."...)
	}
	dst = append(dst, ')')
	if f.IsDecl() {
		return append(dst, '\n')
	}
	dst = append(dst, " {\n"...)
	// Pre-assign block names so forward branch references are stable.
	for _, b := range f.Blocks {
		n.assign(b)
	}
	for _, b := range f.Blocks {
		dst = append(append(dst, n.names[b]...), ":\n"...)
		for _, in := range b.Insts {
			dst = append(appendInst(append(dst, "  "...), in, n), '\n')
		}
	}
	return append(dst, "}\n"...)
}

// FormatInst renders one instruction using a throwaway namer; intended for
// debugging output.
func FormatInst(in *Inst) string { return string(appendInst(nil, in, newNamer())) }

// Namer assigns stable, unique names to the values of one function for
// human-readable listings (alignment views, diffs). Unlike FormatInst, the
// same value keeps the same name across calls.
type Namer struct {
	n *namer
}

// NewNamer returns an empty namer. Use one per function.
func NewNamer() *Namer { return &Namer{n: newNamer()} }

// Inst renders an instruction with this namer's stable names.
func (nm *Namer) Inst(in *Inst) string { return string(appendInst(nil, in, nm.n)) }

// Label returns the display label of a block (without the trailing colon).
func (nm *Namer) Label(b *Block) string { return nm.n.assign(b) }

// appendInst appends the textual form of in (without indentation or
// newline), naming locals with n.
func appendInst(dst []byte, in *Inst, n *namer) []byte {
	if !in.Type().IsVoid() {
		dst = append(append(append(dst, '%'), n.assign(in)...), " = "...)
	}
	switch in.Op {
	case OpRet:
		if in.NumOperands() == 0 {
			return append(dst, "ret void"...)
		}
		return n.appendTypedRef(append(dst, "ret "...), in.Operand(0))
	case OpBr:
		if in.NumOperands() == 1 {
			return n.appendTypedRef(append(dst, "br "...), in.Operand(0))
		}
		return n.appendTypedRefs(append(dst, "br "...), in.Operand(0), in.Operand(1), in.Operand(2))
	case OpSwitch:
		dst = n.appendTypedRefs(append(dst, "switch "...), in.Operand(0), in.Operand(1))
		dst = append(dst, " ["...)
		for i := 2; i < in.NumOperands(); i += 2 {
			if i > 2 {
				dst = append(dst, ' ')
			}
			dst = n.appendTypedRefs(append(dst, ' '), in.Operand(i), in.Operand(i+1))
		}
		return append(dst, " ]"...)
	case OpUnreachable:
		return append(dst, "unreachable"...)
	case OpInvoke:
		dst = append(append(append(dst, "invoke "...), in.Type().String()...), ' ')
		dst = append(n.appendRef(dst, in.Callee()), '(')
		dst = append(n.appendTypedRefs(dst, in.CallArgs()...), ") to "...)
		dst = append(n.appendTypedRef(dst, in.InvokeNormal()), " unwind "...)
		return n.appendTypedRef(dst, in.InvokeUnwind())
	case OpResume:
		return n.appendTypedRef(append(dst, "resume "...), in.Operand(0))
	case OpAlloca:
		return append(append(dst, "alloca "...), in.Alloc.String()...)
	case OpLoad:
		dst = append(append(append(dst, "load "...), in.Type().String()...), ", "...)
		return n.appendTypedRef(dst, in.Operand(0))
	case OpStore:
		return n.appendTypedRefs(append(dst, "store "...), in.Operand(0), in.Operand(1))
	case OpGEP:
		base := in.Operand(0)
		dst = append(append(append(dst, "getelementptr "...), base.Type().Elem.String()...), ", "...)
		return n.appendTypedRefs(dst, in.operands...)
	case OpICmp, OpFCmp:
		dst = append(append(append(append(dst, in.Op.String()...), ' '), in.Pred.String()...), ' ')
		dst = append(n.appendTypedRef(dst, in.Operand(0)), ", "...)
		return n.appendRef(dst, in.Operand(1))
	case OpPhi:
		dst = append(append(append(dst, "phi "...), in.Type().String()...), ' ')
		for i := 0; i < in.NumPhiIncoming(); i++ {
			v, b := in.PhiIncoming(i)
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(n.appendRef(append(dst, "[ "...), v), ", %"...)
			dst = append(append(dst, n.assign(b)...), " ]"...)
		}
		return dst
	case OpSelect:
		return n.appendTypedRefs(append(dst, "select "...), in.Operand(0), in.Operand(1), in.Operand(2))
	case OpCall:
		dst = append(append(append(dst, "call "...), in.Type().String()...), ' ')
		dst = append(n.appendRef(dst, in.Callee()), '(')
		return append(n.appendTypedRefs(dst, in.CallArgs()...), ')')
	case OpLandingPad:
		dst = append(dst, "landingpad"...)
		for _, c := range in.Clauses {
			if c == "cleanup" {
				dst = append(dst, " cleanup"...)
			} else {
				dst = append(append(dst, " catch @"...), c...)
			}
		}
		return dst
	}
	switch {
	case in.Op.IsBinary():
		dst = append(append(dst, in.Op.String()...), ' ')
		dst = append(n.appendTypedRef(dst, in.Operand(0)), ", "...)
		return n.appendRef(dst, in.Operand(1))
	case in.Op.IsCast():
		dst = append(append(dst, in.Op.String()...), ' ')
		dst = append(n.appendTypedRef(dst, in.Operand(0)), " to "...)
		return append(dst, in.Type().String()...)
	default:
		return append(append(append(dst, "<unknown op "...), in.Op.String()...), '>')
	}
}

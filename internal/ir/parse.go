package ir

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// ParseModule parses textual IR in the format produced by FormatModule.
//
// Two passes read the source once each, lexing on demand. The first creates
// every function shell and global, so bodies can reference symbols defined
// later in the file, and skips the bodies without lexing them; the second
// parses the bodies. A malformed token anywhere in the source is reported
// ahead of any syntax error.
func ParseModule(name, src string) (*Module, error) {
	p := &parser{mod: NewModule(name)}
	p.start(src)
	err := p.scanHeaders()
	if err == nil && p.lexErr == nil {
		p.start(src)
		err = p.parseBodies()
	}
	if err != nil || p.lexErr != nil {
		// The first malformed token takes precedence, also over a syntax
		// error ahead of it; the passes may have stopped short of it or,
		// skipping bodies, past it.
		if lerr := lexAll(src); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	return p.mod, nil
}

// MustParseModule is ParseModule that panics on error; intended for tests
// and examples with literal IR.
func MustParseModule(name, src string) *Module {
	m, err := ParseModule(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tLocal  // %name
	tGlobal // @name
	tInt
	tFloat
	tString
	tPunct
)

// token is one lexeme. Its text is a substring of the source: the name
// without its sigil for locals and globals, the contents without quotes for
// strings.
type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tLocal:
		return "%" + t.text
	case tGlobal:
		return "@" + t.text
	case tString:
		return strconv.Quote(t.text)
	default:
		return t.text
	}
}

// is reports whether t is the punctuation s.
func (t token) is(s string) bool { return t.kind == tPunct && t.text == s }

func isIdentStart(c byte) bool { return charClass[c] == cIdent || c == '.' }

func isIdentChar(c byte) bool { return charClass[c] >= cMinus }

// Character classes of the lexer. The classes from cMinus on are the
// characters that may continue an identifier.
const (
	cOther byte = iota
	cSpace
	cNewline
	cComment
	cSigil // % or @
	cQuote
	cPunct
	cPlus  // starts a number
	cMinus // starts a number
	cDot   // starts "..." or an identifier
	cDigit // starts a number
	cIdent // starts an identifier
)

var charClass = func() (t [256]byte) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cIdent, cIdent
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	t['_'], t['$'] = cIdent, cIdent
	t['.'] = cDot
	t['+'], t['-'] = cPlus, cMinus
	t[' '], t['\t'], t['\r'] = cSpace, cSpace, cSpace
	t['\n'] = cNewline
	t[';'] = cComment
	t['%'], t['@'] = cSigil, cSigil
	t['"'] = cQuote
	for _, c := range "(){}[],=:*" {
		t[c] = cPunct
	}
	return t
}()

// lexer yields the tokens of src one at a time. It is a small value:
// copying it is a free checkpoint, which is how the parser looks ahead.
type lexer struct {
	src  string
	off  int
	line int
}

// next scans the token at the lexer's position. At the end of the source it
// returns tEOF, on every later call too.
func (lx *lexer) next() (token, error) {
	src, i := lx.src, lx.off
	for i < len(src) {
		c := src[i]
		switch charClass[c] {
		case cNewline:
			lx.line++
			i++
		case cSpace:
			i++
		case cComment: // to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case cSigil:
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			if j == i+1 {
				lx.off = i
				return token{}, fmt.Errorf("line %d: empty identifier after %q", lx.line, string(c))
			}
			kind := tLocal
			if c == '@' {
				kind = tGlobal
			}
			return lx.emit(kind, i+1, j, j)
		case cQuote:
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j == len(src) {
				lx.off = i
				return token{}, fmt.Errorf("line %d: unterminated string", lx.line)
			}
			return lx.emit(tString, i+1, j, j+1)
		case cPlus, cMinus, cDigit:
			j := i
			if c == '-' || c == '+' {
				if strings.HasPrefix(src[i+1:], "inf") {
					return lx.emit(tFloat, i, i+4, i+4)
				}
				j++
			}
			kind := tInt
			for j < len(src) {
				d := src[j]
				if d >= '0' && d <= '9' {
					j++
				} else if d == '.' || d == 'e' || d == 'E' {
					kind = tFloat
					j++
					if j < len(src) && (src[j] == '-' || src[j] == '+') && (d == 'e' || d == 'E') {
						j++
					}
				} else {
					break
				}
			}
			return lx.emit(kind, i, j, j)
		case cPunct:
			return lx.emit(tPunct, i, i+1, i+1)
		case cDot, cIdent:
			if c == '.' && strings.HasPrefix(src[i:], "...") {
				return lx.emit(tPunct, i, i+3, i+3)
			}
			j := i + 1
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			return lx.emit(tIdent, i, j, j)
		default:
			lx.off = i
			return token{}, fmt.Errorf("line %d: unexpected character %q", lx.line, string(c))
		}
	}
	lx.off = i
	return token{kind: tEOF, line: lx.line}, nil
}

// emit returns the token spelled src[from:to] and resumes scanning at end.
func (lx *lexer) emit(kind tokKind, from, to, end int) (token, error) {
	lx.off = end
	return token{kind, lx.src[from:to], lx.line}, nil
}

// lexAll lexes src to the end and returns its first lexical error.
func lexAll(src string) error {
	lx := lexer{src: src, line: 1}
	for {
		t, err := lx.next()
		if err != nil || t.kind == tEOF {
			return err
		}
	}
}

type parser struct {
	lx     lexer // positioned just past tok
	tok    token // the current token
	lexErr error // the first lexical error; tok reads as EOF from there on
	mod    *Module

	// per-function state
	fn     *Func
	locals map[string]Value
	blocks map[string]*Block
	refs   []*Block // blocks' values in first-reference order
	fixups []fixup
	shapes [][]int   // per function header, in source order (scanHeaders)
	slab   *InstSlab // the current body's instructions

	// The instruction being parsed: its operands in order (nil for a forward
	// reference) and its forward references, whose inst is set by build.
	ops []Value
	fwd []fixup

	useBuf []Use // storage for first use lists, see build
}

// useChunk is the number of uses build carves use lists from per allocation.
const useChunk = 1024

// fixup records a forward reference to a not-yet-defined local value.
type fixup struct {
	inst  *Inst
	index int
	name  string
	line  int
}

// start positions the parser on the first token of src.
func (p *parser) start(src string) {
	p.lx = lexer{src: src, line: 1}
	p.advance()
}

// advance makes the following token current. A lexical error is recorded
// and ends the input, so the parse winds down and ParseModule reports it.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	t, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		t = token{kind: tEOF, line: p.lx.line}
	}
	p.tok = t
}

func (p *parser) cur() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	p.advance()
	return t
}

// peek returns the token after the current one without consuming anything;
// a lexical error there reads as EOF.
func (p *parser) peek() token {
	if p.lexErr != nil {
		return p.tok
	}
	lx := p.lx
	t, err := lx.next()
	if err != nil {
		return token{kind: tEOF, line: lx.line}
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if !t.is(s) {
		return fmt.Errorf("line %d: expected %q, got %s", t.line, s, t)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.tok.is(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	if p.cur().kind == tIdent && p.cur().text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tIdent {
		return "", fmt.Errorf("line %d: expected identifier, got %s", t.line, t)
	}
	return t.text, nil
}

// scanHeaders walks the token stream creating function shells and globals so
// bodies can reference symbols defined later in the file. It records each
// function's body shape for parseBodies.
func (p *parser) scanHeaders() error {
	for p.cur().kind != tEOF {
		switch {
		case p.cur().kind == tGlobal:
			if err := p.parseGlobal(); err != nil {
				return err
			}
		case p.cur().kind == tIdent && (p.cur().text == "define" || p.cur().text == "declare"):
			if err := p.parseFuncHeader(true); err != nil {
				return err
			}
			p.shapes = append(p.shapes, p.skipBody())
		default:
			return p.errf("expected global or function, got %s", p.cur())
		}
	}
	return nil
}

// skipBody advances past a balanced '{' ... '}' body if one follows and
// returns one instruction-count estimate per label: each line whose first
// token is "name:" opens a label, each later line with a token adds an
// instruction (exact for printer output, a harmless capacity hint
// otherwise).
//
// The body is skipped byte by byte rather than token by token: outside
// strings and comments every brace is a brace token, and newlines inside
// strings do not count, just as in the lexer. Only malformed tokens go
// unnoticed here; the body parse reports them.
func (p *parser) skipBody() []int {
	if !p.cur().is("{") {
		return nil
	}
	src, i, line := p.lx.src, p.lx.off, p.lx.line
	depth := 1
	var counts []int
	firstTok := -1 // the last line whose first token has been seen
	for i < len(src) && depth > 0 {
		switch c := src[i]; c {
		case '\n':
			line++
			i++
		case ' ', '\t', '\r':
			i++
		case ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case '{':
			depth++
			i++
		case '}':
			depth--
			i++
		default:
			if depth == 1 && line != firstTok {
				firstTok = line
				if labelAt(src, i) {
					counts = append(counts, 0)
				} else if len(counts) > 0 {
					counts[len(counts)-1]++
				}
			}
			if c == '"' {
				j := strings.IndexByte(src[i+1:], '"')
				if j < 0 {
					depth = -1 // stop at the quote: the lexer reports it
					break
				}
				i += j + 1
			}
			// The rest of the line matters only where it opens a comment,
			// a string or a brace.
			for i++; i < len(src) && !bodySkipStop[src[i]]; i++ {
			}
		}
	}
	p.lx.off, p.lx.line = i, line
	p.advance()
	return counts
}

// bodySkipStop marks the bytes skipBody must look at past a line's first
// token.
var bodySkipStop = [256]bool{'\n': true, ';': true, '"': true, '{': true, '}': true}

// labelAt reports whether a label definition "name:" starts at src[i].
func labelAt(src string, i int) bool {
	if !isIdentStart(src[i]) || strings.HasPrefix(src[i:], "...") {
		return false
	}
	j := i + 1
	for j < len(src) && isIdentChar(src[j]) {
		j++
	}
	for j < len(src) && charClass[src[j]] == cSpace {
		j++
	}
	return j < len(src) && src[j] == ':'
}

func (p *parser) parseBodies() error {
	for nfunc := 0; p.cur().kind != tEOF; {
		switch {
		case p.cur().kind == tGlobal:
			// Already handled in scanHeaders; skip to end of line item.
			p.skipGlobal()
		case p.cur().kind == tIdent && p.cur().text == "declare":
			if err := p.parseFuncHeader(false); err != nil {
				return err
			}
			nfunc++
		case p.cur().kind == tIdent && p.cur().text == "define":
			if err := p.parseFuncHeader(false); err != nil {
				return err
			}
			if err := p.parseBody(p.shapes[nfunc]); err != nil {
				return err
			}
			nfunc++
		default:
			return p.errf("expected global or function, got %s", p.cur())
		}
	}
	return nil
}

func (p *parser) skipGlobal() {
	p.next() // @name
	p.expectPunct("=")
	p.acceptIdent("internal")
	p.acceptIdent("global")
	p.parseType()
	if !p.acceptIdent("zeroinitializer") {
		p.acceptIdent("bytes")
		if p.cur().kind == tString {
			p.next()
		}
	}
}

func (p *parser) parseGlobal() error {
	name := p.next().text
	if err := p.expectPunct("="); err != nil {
		return err
	}
	linkage := ExternalLinkage
	if p.acceptIdent("internal") {
		linkage = InternalLinkage
	}
	if !p.acceptIdent("global") {
		return p.errf("expected 'global'")
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	g := NewGlobal(name, ty)
	g.Linkage = linkage
	if p.acceptIdent("zeroinitializer") {
		g.Init = nil
	} else if p.acceptIdent("bytes") {
		t := p.next()
		if t.kind != tString {
			return p.errf("expected hex byte string")
		}
		data, err := hex.DecodeString(t.text)
		if err != nil {
			return p.errf("bad hex initializer: %v", err)
		}
		g.Init = data
	} else {
		return p.errf("expected initializer")
	}
	p.mod.AddGlobal(g)
	return nil
}

// parseFuncHeader parses "define|declare [internal] <ret> @name(<params>)".
// In header-scan mode it registers the function; otherwise it re-parses the
// header and installs parameter bindings for the body parse.
func (p *parser) parseFuncHeader(scan bool) error {
	kw, _ := p.expectIdent() // define | declare
	isDef := kw == "define"
	linkage := ExternalLinkage
	if isDef && p.acceptIdent("internal") {
		linkage = InternalLinkage
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	t := p.next()
	if t.kind != tGlobal {
		return fmt.Errorf("line %d: expected function name, got %s", t.line, t)
	}
	fname := t.text
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var ptypes []*Type
	var pnames []string
	variadic := false
	for !p.acceptPunct(")") {
		if len(ptypes) > 0 || variadic {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		if p.acceptPunct("...") {
			variadic = true
			continue
		}
		pt, err := p.parseType()
		if err != nil {
			return err
		}
		ptypes = append(ptypes, pt)
		if p.cur().kind == tLocal {
			pnames = append(pnames, p.next().text)
		} else {
			pnames = append(pnames, "")
		}
	}
	if scan {
		if p.mod.FuncByName(fname) != nil {
			return fmt.Errorf("line %d: duplicate function @%s", t.line, fname)
		}
		sig := FuncOf(ret, ptypes...)
		if variadic {
			sig = VarFuncOf(ret, ptypes...)
		}
		f := NewFunc(fname, sig)
		f.Linkage = linkage
		p.mod.AddFunc(f)
		return nil
	}
	f := p.mod.FuncByName(fname)
	p.fn = f
	if p.locals == nil {
		p.locals = map[string]Value{}
		p.blocks = map[string]*Block{}
	}
	clear(p.locals)
	clear(p.blocks)
	p.refs = p.refs[:0]
	p.fixups = p.fixups[:0]
	for i, nm := range pnames {
		if nm != "" {
			f.Params[i].SetName(nm)
			p.locals[nm] = f.Params[i]
		}
	}
	return nil
}

func (p *parser) getBlock(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := NewBlock(name)
	p.blocks[name] = b
	p.refs = append(p.refs, b)
	return b
}

// parseBody parses a function body whose shape skipBody recorded: the
// block slice, each block's instruction slice and one slab of instructions
// are sized from it up front.
func (p *parser) parseBody(shape []int) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if len(shape) > 0 && p.fn.Blocks == nil {
		p.fn.Blocks = make([]*Block, 0, len(shape))
	}
	total := 0
	for _, n := range shape {
		total += n
	}
	p.slab = NewInstSlab(total)
	nextLabel := 0
	var cur *Block
	for !p.acceptPunct("}") {
		t := p.cur()
		if t.kind == tIdent && p.peek().is(":") {
			// Label.
			p.advance()
			p.advance()
			cur = p.getBlock(t.text)
			if cur.parent != nil {
				return fmt.Errorf("line %d: duplicate label %q", t.line, t.text)
			}
			if nextLabel < len(shape) && cur.Insts == nil && shape[nextLabel] > 0 {
				cur.Insts = make([]*Inst, 0, shape[nextLabel])
			}
			nextLabel++
			p.fn.AppendBlock(cur)
			continue
		}
		if cur == nil {
			return p.errf("instruction outside block")
		}
		in, err := p.parseInst()
		if err != nil {
			return err
		}
		cur.Append(in)
	}
	// Resolve forward references.
	for _, fx := range p.fixups {
		v, ok := p.locals[fx.name]
		if !ok {
			return fmt.Errorf("line %d: undefined value %%%s", fx.line, fx.name)
		}
		fx.inst.SetOperand(fx.index, v)
	}
	// Blocks referenced but never defined are an error; name the first.
	for _, b := range p.refs {
		if b.parent == nil {
			return fmt.Errorf("in %s: branch to undefined label %%%s", p.fn.Name(), b.Name())
		}
	}
	p.fn = nil
	return nil
}

// parseType parses a type. Base types: void, label, token, iN, fN, arrays,
// structs; any type may be suffixed with '*'.
func (p *parser) parseType() (*Type, error) {
	var ty *Type
	t := p.cur()
	switch {
	case t.kind == tIdent:
		p.advance()
		switch {
		case t.text == "void":
			ty = Void()
		case t.text == "label":
			ty = Label()
		case t.text == "token":
			ty = Token()
		case len(t.text) > 1 && t.text[0] == 'i':
			// Validate the width here: the constructors panic on invalid
			// widths by design, but bad source must be an error, not a panic.
			bits, err := strconv.Atoi(t.text[1:])
			if err != nil || bits < 1 || bits > 64 {
				return nil, fmt.Errorf("line %d: bad type %q", t.line, t.text)
			}
			ty = Int(bits)
		case len(t.text) > 1 && t.text[0] == 'f':
			bits, err := strconv.Atoi(t.text[1:])
			if err != nil || (bits != 32 && bits != 64) {
				return nil, fmt.Errorf("line %d: bad type %q", t.line, t.text)
			}
			ty = Float(bits)
		default:
			return nil, fmt.Errorf("line %d: unknown type %q", t.line, t.text)
		}
	case t.is("["):
		p.advance()
		nTok := p.next()
		if nTok.kind != tInt {
			return nil, fmt.Errorf("line %d: expected array length", nTok.line)
		}
		n, err := strconv.Atoi(nTok.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("line %d: bad array length %q", nTok.line, nTok.text)
		}
		if !p.acceptIdent("x") {
			return nil, p.errf("expected 'x' in array type")
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		ty = ArrayOf(n, elem)
	case t.is("{"):
		p.advance()
		var fields []*Type
		for !p.acceptPunct("}") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			f, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
		}
		ty = StructOf(fields...)
	default:
		return nil, fmt.Errorf("line %d: expected type, got %s", t.line, t)
	}
	// Function type suffix: "<ret> (<params>)".
	if p.tok.is("(") {
		p.advance()
		var params []*Type
		variadic := false
		for !p.acceptPunct(")") {
			if len(params) > 0 || variadic {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			if p.acceptPunct("...") {
				variadic = true
				continue
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			params = append(params, pt)
		}
		if variadic {
			ty = VarFuncOf(ty, params...)
		} else {
			ty = FuncOf(ty, params...)
		}
	}
	for p.acceptPunct("*") {
		ty = PointerTo(ty)
	}
	return ty, nil
}

// parseValueRef parses a value reference of known type ty. The caller
// appends the result to p.ops at once: a local not yet defined yields nil
// and is recorded as a forward reference of that operand slot.
func (p *parser) parseValueRef(ty *Type) (Value, error) {
	t := p.next()
	switch t.kind {
	case tLocal:
		if v, ok := p.locals[t.text]; ok {
			return v, nil
		}
		p.fwd = append(p.fwd, fixup{index: len(p.ops), name: t.text, line: t.line})
		return nil, nil
	case tGlobal:
		if f := p.mod.FuncByName(t.text); f != nil {
			return f, nil
		}
		if g := p.mod.GlobalByName(t.text); g != nil {
			return g, nil
		}
		return nil, fmt.Errorf("line %d: undefined symbol @%s", t.line, t.text)
	case tInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Large unsigned literal: reparse as unsigned bits.
			u, uerr := strconv.ParseUint(t.text, 10, 64)
			if uerr != nil {
				return nil, fmt.Errorf("line %d: bad integer %q", t.line, t.text)
			}
			v = int64(u)
		}
		if ty.IsFloat() {
			return NewConstFloat(ty, float64(v)), nil
		}
		if !ty.IsInt() {
			return nil, fmt.Errorf("line %d: integer literal for non-integer type %s", t.line, ty)
		}
		return NewConstInt(ty, v), nil
	case tFloat:
		var v float64
		switch t.text {
		case "+inf":
			v = inf(1)
		case "-inf":
			v = inf(-1)
		default:
			var err error
			v, err = strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad float %q", t.line, t.text)
			}
		}
		if !ty.IsFloat() {
			return nil, fmt.Errorf("line %d: float literal for non-float type %s", t.line, ty)
		}
		return NewConstFloat(ty, v), nil
	case tIdent:
		switch t.text {
		case "undef":
			return NewUndef(ty), nil
		case "null":
			if !ty.IsPointer() {
				return nil, fmt.Errorf("line %d: null literal for non-pointer type %s", t.line, ty)
			}
			return NewConstNull(ty), nil
		case "true":
			return NewConstInt(Bool(), 1), nil
		case "false":
			return NewConstInt(Bool(), 0), nil
		case "nan":
			if !ty.IsFloat() {
				return nil, fmt.Errorf("line %d: nan literal for non-float type %s", t.line, ty)
			}
			return NewConstFloat(ty, nan()), nil
		}
	}
	return nil, fmt.Errorf("line %d: expected value, got %s", t.line, t)
}

// operand parses a value reference of type ty into the next operand slot.
func (p *parser) operand(ty *Type) error {
	v, err := p.parseValueRef(ty)
	p.ops = append(p.ops, v)
	return err
}

// typedOperand parses "<type> <valueref>" into the next operand slot and
// returns the type.
func (p *parser) typedOperand() (*Type, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return ty, p.operand(ty)
}

// labelOperand parses "label %name" into the next operand slot.
func (p *parser) labelOperand() error {
	b, err := p.parseLabelRef()
	p.ops = append(p.ops, b)
	return err
}

// parseLabelRef parses "label %name".
func (p *parser) parseLabelRef() (*Block, error) {
	if !p.acceptIdent("label") {
		return nil, p.errf("expected 'label'")
	}
	t := p.next()
	if t.kind != tLocal {
		return nil, fmt.Errorf("line %d: expected block name, got %s", t.line, t)
	}
	return p.getBlock(t.text), nil
}

func (p *parser) define(name string, v Value) error {
	if name == "" {
		return nil
	}
	if _, dup := p.locals[name]; dup {
		return p.errf("redefinition of %%%s", name)
	}
	p.locals[name] = v
	if nv, ok := v.(Named); ok {
		nv.SetName(name)
	}
	return nil
}

func (p *parser) parseInst() (*Inst, error) {
	resultName := ""
	if p.cur().kind == tLocal {
		resultName = p.next().text
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
	}
	opTok := p.next()
	if opTok.kind != tIdent {
		return nil, fmt.Errorf("line %d: expected opcode, got %s", opTok.line, opTok)
	}
	op, ok := opcodeByName[opTok.text]
	if !ok {
		return nil, fmt.Errorf("line %d: unknown instruction %q", opTok.line, opTok.text)
	}
	p.ops, p.fwd = p.ops[:0], p.fwd[:0]
	in, err := p.parseInstBody(op)
	if err != nil {
		return nil, err
	}
	if resultName != "" {
		if in.Type().IsVoid() {
			return nil, fmt.Errorf("line %d: void instruction cannot have a result name", opTok.line)
		}
		if err := p.define(resultName, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// build makes the parsed instruction from the body's slab: it fills the
// operand slots in order, which tracks each use in source order, and hands
// the forward references to the function's fixups.
func (p *parser) build(op Opcode, typ *Type) *Inst {
	in := p.slab.NewInst(op, typ, len(p.ops))
	for i, v := range p.ops {
		if v != nil {
			// A value's first use gives it room for two from a shared
			// chunk: most values have one or two uses.
			if len(p.useBuf) < 2 {
				p.useBuf = make([]Use, useChunk)
			}
			p.useBuf = PresizeUses(v, 2, p.useBuf)
			in.SetOperand(i, v)
		}
	}
	for _, fx := range p.fwd {
		fx.inst = in
		p.fixups = append(p.fixups, fx)
	}
	return in
}

// parseInstBody parses the operands of opcode op into p.ops and builds the
// instruction.
func (p *parser) parseInstBody(op Opcode) (*Inst, error) {
	switch {
	case op.IsBinary():
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.operand(ty); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.operand(ty); err != nil {
			return nil, err
		}
		return p.build(op, ty), nil
	case op.IsCast():
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		if !p.acceptIdent("to") {
			return nil, p.errf("expected 'to' in cast")
		}
		to, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return p.build(op, to), nil
	}

	switch op {
	case OpRet:
		if !p.acceptIdent("void") {
			if _, err := p.typedOperand(); err != nil {
				return nil, err
			}
		}
		return p.build(OpRet, Void()), nil

	case OpBr:
		if p.cur().kind == tIdent && p.cur().text == "label" {
			if err := p.labelOperand(); err != nil {
				return nil, err
			}
			return p.build(OpBr, Void()), nil
		}
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.labelOperand(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.labelOperand(); err != nil {
			return nil, err
		}
		return p.build(OpBr, Void()), nil

	case OpSwitch:
		condTy, err := p.typedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.labelOperand(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		for !p.acceptPunct("]") {
			cty, err := p.typedOperand()
			if err != nil {
				return nil, err
			}
			if cty != condTy {
				return nil, p.errf("switch case type %s does not match condition %s", cty, condTy)
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			if err := p.labelOperand(); err != nil {
				return nil, err
			}
		}
		return p.build(OpSwitch, Void()), nil

	case OpUnreachable:
		return p.build(OpUnreachable, Void()), nil

	case OpResume:
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		return p.build(OpResume, Void()), nil

	case OpAlloca:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		in := p.build(OpAlloca, PointerTo(ty))
		in.Alloc = ty
		return in, nil

	case OpLoad:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		return p.build(OpLoad, ty), nil

	case OpStore:
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		return p.build(OpStore, Void()), nil

	case OpGEP:
		if _, err := p.parseType(); err != nil { // pointee type, redundant with pointer operand
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		baseTy, err := p.typedOperand()
		if err != nil {
			return nil, err
		}
		for p.acceptPunct(",") {
			if _, err := p.typedOperand(); err != nil {
				return nil, err
			}
		}
		rt, err := GEPResultTypeChecked(baseTy, p.ops[1:])
		if err != nil {
			return nil, p.errf("%s", err)
		}
		return p.build(OpGEP, rt), nil

	case OpICmp, OpFCmp:
		predName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		pred, ok := PredByName[predName]
		if !ok {
			return nil, p.errf("unknown predicate %q", predName)
		}
		ty, err := p.typedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if err := p.operand(ty); err != nil {
			return nil, err
		}
		in := p.build(op, Bool())
		in.Pred = pred
		return in, nil

	case OpPhi:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		first := true
		for first || p.acceptPunct(",") {
			first = false
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			if err := p.operand(ty); err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			t := p.next()
			if t.kind != tLocal {
				return nil, fmt.Errorf("line %d: expected block name in phi, got %s", t.line, t)
			}
			p.ops = append(p.ops, p.getBlock(t.text))
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
		}
		return p.build(OpPhi, ty), nil

	case OpSelect:
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ty, err := p.typedOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if _, err := p.typedOperand(); err != nil {
			return nil, err
		}
		return p.build(OpSelect, ty), nil

	case OpCall, OpInvoke:
		retTy, err := p.parseType()
		if err != nil {
			return nil, err
		}
		// Callee: global or local (indirect).
		t := p.next()
		switch t.kind {
		case tGlobal:
			f := p.mod.FuncByName(t.text)
			if f == nil {
				return nil, fmt.Errorf("line %d: call of undefined function @%s", t.line, t.text)
			}
			p.ops = append(p.ops, f)
		case tLocal:
			v, ok := p.locals[t.text]
			if !ok {
				return nil, fmt.Errorf("line %d: indirect callee %%%s must be defined before use", t.line, t.text)
			}
			p.ops = append(p.ops, v)
		default:
			return nil, fmt.Errorf("line %d: expected callee, got %s", t.line, t)
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for !p.acceptPunct(")") {
			if len(p.ops) > 1 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			if _, err := p.typedOperand(); err != nil {
				return nil, err
			}
		}
		if op == OpInvoke {
			if !p.acceptIdent("to") {
				return nil, p.errf("expected 'to' in invoke")
			}
			if err := p.labelOperand(); err != nil {
				return nil, err
			}
			if !p.acceptIdent("unwind") {
				return nil, p.errf("expected 'unwind' in invoke")
			}
			if err := p.labelOperand(); err != nil {
				return nil, err
			}
		}
		return p.build(op, retTy), nil

	case OpLandingPad:
		var clauses []string
		for {
			if p.acceptIdent("cleanup") {
				clauses = append(clauses, "cleanup")
				continue
			}
			if p.acceptIdent("catch") {
				t := p.next()
				if t.kind != tGlobal {
					return nil, fmt.Errorf("line %d: expected @typeinfo after catch", t.line)
				}
				clauses = append(clauses, t.text)
				continue
			}
			break
		}
		in := p.build(OpLandingPad, Token())
		in.Clauses = clauses
		return in, nil
	}
	panic("ir: parser has no case for opcode " + op.String())
}

// opcodeByName maps the mnemonics of the textual format to their opcodes.
var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for op := OpInvalid + 1; op < NumOpcodes; op++ {
		m[op.String()] = op
	}
	return m
}()

package core

import (
	"fmt"
	"time"

	"fmsa/internal/align"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
)

// Result is the outcome of merging two functions.
type Result struct {
	// Merged is the generated function. It is detached: callers decide
	// whether to commit it to the module (see Commit) or discard it (see
	// Discard) after evaluating profitability.
	Merged *ir.Func
	// F1 and F2 are the original functions, identified by func_id values
	// true and false respectively.
	F1, F2 *ir.Func
	// ParamMap1[i] is the merged parameter slot receiving F1's argument i;
	// likewise ParamMap2. Slot 0 is the function identifier when HasFuncID.
	ParamMap1, ParamMap2 []int
	// HasFuncID reports whether Merged takes the function-identifier
	// parameter in slot 0.
	HasFuncID bool
	// Stats describes the merge.
	Stats Stats

	// scratch is the pooled merger state (value maps, dispatch memo, clone
	// arena) retained until the caller decides the merge's fate: Discard
	// recycles it, Commit drops it (see mergerScratch).
	scratch *mergerScratch
}

// Merge merges two functions of the same module by sequence alignment
// (§III). The returned merged function is detached from the module; use
// Result.Commit to install it and rewrite/erase the originals, or
// Result.Discard to abandon it.
//
// Requirements: both functions must be definitions in the same module,
// non-variadic, and phi-free (run passes.DemotePhis first). Functions with
// differing aggregate return types are rejected.
func Merge(f1, f2 *ir.Func, opts Options) (*Result, error) {
	if f1 == f2 {
		return nil, fmt.Errorf("cannot merge %s with itself", f1.Ident())
	}
	if f1.Parent() == nil || f1.Parent() != f2.Parent() {
		return nil, fmt.Errorf("functions must belong to the same module")
	}
	if f1.IsDecl() || f2.IsDecl() {
		return nil, fmt.Errorf("cannot merge declarations")
	}
	if f1.Sig().Variadic || f2.Sig().Variadic {
		return nil, fmt.Errorf("cannot merge variadic functions")
	}
	if err := checkPhiFree(f1); err != nil {
		return nil, err
	}
	if err := checkPhiFree(f2); err != nil {
		return nil, err
	}
	retTy, err := mergeReturnTypes(f1.ReturnType(), f2.ReturnType())
	if err != nil {
		return nil, err
	}
	if opts.Align == nil {
		opts.Align = align.AlignCodes
	}
	if m := opts.Memo; m != nil {
		if m.order != opts.Order {
			panic("core: Options.Memo linearizes in another order")
		}
		if opts.Prune != nil {
			m.mustPrice(opts.Prune.Target)
		}
	} else if opts.Interner == nil {
		// Both sequences must draw codes from one table; a per-call table
		// lives exactly as long as the merge.
		opts.Interner = encode.NewInterner()
	}

	// Step 1: linearization (§III-B), from the memo when the caller wired
	// one.
	tLin := time.Now()
	e1, e2 := opts.entry(f1), opts.entry(f2)
	seq1, seq2 := e1.enc.Seq, e2.enc.Seq
	if opts.Timings != nil {
		opts.Timings.AddLinearize(time.Since(tLin))
	}

	// Step 2: sequence alignment (§III-C) over the equivalence codes.
	// Mismatch columns are then decomposed into gap pairs so that every
	// column is either an exact match or code unique to one function.
	tAlign := time.Now()
	steps := opts.Align(e1.enc.Codes, e2.enc.Codes)
	if opts.Timings != nil {
		opts.Timings.AddAlignCells(int64(len(seq1)) * int64(len(seq2)))
	}
	steps = align.DecomposeMismatches(steps)
	steps = normalizePads(steps, seq1, seq2)
	if opts.Timings != nil {
		opts.Timings.AddAlign(time.Since(tAlign))
	}
	tGen := time.Now()
	defer func() {
		if opts.Timings != nil {
			opts.Timings.AddCodeGen(time.Since(tGen))
		}
	}()

	// Pre-codegen profitability bounding (bound.go): when the admissible
	// bound proves the pair cannot clear the profit threshold, skip code
	// generation — the exact model would reject the merge anyway. Accounted
	// to the CodeGen phase: it replaces code-generation work.
	// The parameter plan is needed ahead of code generation: the bound's
	// arity and operand-divergence floors reuse the exact slot assignment.
	plan := buildParamPlan(f1, f2, seq1, seq2, steps, opts.ReuseParams)

	auditBound, haveBound := 0, false
	if opts.Prune != nil {
		bound, ok := profitUpperBound(e1, e2, steps, &plan, opts.Prune, opts.Memo)
		pruned := ok && opts.BoundAudit == nil && bound <= opts.Prune.MinProfit
		if opts.Timings != nil {
			opts.Timings.CountBound(pruned)
		}
		if pruned {
			return nil, ErrHopeless
		}
		auditBound, haveBound = bound, ok
	}

	// Step 3: code generation (§III-E).
	res, err := generate(f1, f2, seq1, seq2, steps, plan, retTy, opts)
	if err == nil && haveBound && opts.BoundAudit != nil {
		exact := res.ProfitWithStats(opts.Prune.Target, opts.Prune.S1, opts.Prune.S2, opts.Memo)
		opts.BoundAudit(f1, f2, auditBound, exact)
	}
	return res, err
}

// generate runs code generation with a panic boundary: an internal
// invariant violation on one pathological pair becomes an error (the
// exploration framework skips the pair) instead of aborting the whole
// module optimization.
func generate(f1, f2 *ir.Func, seq1, seq2 []linearize.Entry, steps []align.Step,
	plan paramPlan, retTy *ir.Type, opts Options) (res *Result, err error) {

	sc := getScratch()
	m := &merger{
		f1: f1, f2: f2,
		seq1: seq1, seq2: seq2,
		steps: steps,
		plan:  plan,
		retTy: retTy,
		sc:    sc,
	}
	defer func() {
		if r := recover(); r != nil {
			if m.fn != nil {
				m.fn.DropBody()
			}
			putScratch(sc)
			res, err = nil, fmt.Errorf("merging %s with %s: %v", f1.Ident(), f2.Ident(), r)
		}
	}()
	name := fmt.Sprintf("%s.%s.%s", opts.NamePrefix, f1.Name(), f2.Name())
	if err := m.run(name); err != nil {
		if m.fn != nil {
			m.fn.DropBody()
		}
		putScratch(sc)
		return nil, err
	}

	res = &Result{
		Merged:    m.fn,
		F1:        f1,
		F2:        f2,
		ParamMap1: plan.map1,
		ParamMap2: plan.map2,
		HasFuncID: true,
		Stats:     m.stats,
	}
	res.scratch = sc
	res.Stats.Len1, res.Stats.Len2 = len(seq1), len(seq2)

	// If the functions turned out to be identical (no divergent code, no
	// operand selects), the function identifier is unused: drop it,
	// emulating identical-function merging (§III-A).
	if m.fn.Params[0].NumUses() == 0 && res.Stats.GapColumns == 0 {
		res.dropFuncID()
	}
	res.Stats.HasFuncID = res.HasFuncID
	return res, nil
}

func checkPhiFree(f *ir.Func) error {
	var bad bool
	f.Insts(func(in *ir.Inst) {
		if in.Op == ir.OpPhi {
			bad = true
		}
	})
	if bad {
		return fmt.Errorf("%s contains phi instructions; run DemotePhis first", f.Ident())
	}
	return nil
}

// Discard abandons a merged function that was never committed, releasing
// its references to module symbols and recycling the merger's pooled side
// tables and clone storage — after DropBody every arena-allocated clone is
// dead, so nothing retained by the scratch can reach the discarded body.
func (r *Result) Discard() {
	r.Merged.DropBody()
	if r.scratch != nil {
		putScratch(r.scratch)
		r.scratch = nil
	}
}

// dropFuncID rebuilds the merged function without the unused func_id
// parameter.
func (r *Result) dropFuncID() {
	old := r.Merged
	sig := old.Sig()
	nf := ir.NewFunc(old.Name(), ir.FuncOf(sig.Ret, sig.Fields[1:]...))
	vmap := map[ir.Value]ir.Value{}
	for i := 1; i < len(old.Params); i++ {
		nf.Params[i-1].SetName(old.Params[i].Name())
		vmap[old.Params[i]] = nf.Params[i-1]
	}
	ir.CloneBody(old, nf, vmap)
	old.DropBody()
	r.Merged = nf
	r.HasFuncID = false
	for i := range r.ParamMap1 {
		r.ParamMap1[i]--
	}
	for i := range r.ParamMap2 {
		r.ParamMap2[i]--
	}
}

// normalizePads rewrites the alignment so that every matched pair of
// landing-block labels is immediately followed by a matched column for
// their landingpad instructions. The aligner is free to emit co-optimal
// alignments that gap the two (identical) pads individually; code
// generation would then split the shared landing block with a func_id
// branch ahead of the pad, which is invalid (§III-D requires the pad to be
// the first instruction of its block).
func normalizePads(steps []align.Step, seq1, seq2 []linearize.Entry) []align.Step {
	pairs := map[[2]int]bool{} // (i, j) pad-entry pairs to force-match
	skip1 := map[int]bool{}
	skip2 := map[int]bool{}
	for _, s := range steps {
		if s.Op != align.OpMatch || !seq1[s.I].IsLabel() {
			continue
		}
		if !seq1[s.I].Block.IsLandingBlock() {
			continue
		}
		// Label equivalence guarantees seq2[s.J] is a landing label too;
		// each landing block's first instruction is its pad.
		pi, pj := s.I+1, s.J+1
		pairs[[2]int{pi, pj}] = true
		skip1[pi] = true
		skip2[pj] = true
	}
	if len(pairs) == 0 {
		return steps
	}
	out := make([]align.Step, 0, len(steps))
	for _, s := range steps {
		switch s.Op {
		case align.OpMatch:
			if seq1[s.I].IsLabel() && seq1[s.I].Block.IsLandingBlock() {
				out = append(out, s,
					align.Step{Op: align.OpMatch, I: s.I + 1, J: s.J + 1})
				continue
			}
			p1, p2 := skip1[s.I], skip2[s.J]
			switch {
			case p1 && p2:
				// Both pads are re-emitted right after their own labels;
				// whether or not they were partners, drop this column.
			case p1:
				out = append(out, align.Step{Op: align.OpGapB, I: -1, J: s.J})
			case p2:
				out = append(out, align.Step{Op: align.OpGapA, I: s.I, J: -1})
			default:
				out = append(out, s)
			}
		case align.OpGapA:
			if !skip1[s.I] {
				out = append(out, s)
			}
		case align.OpGapB:
			if !skip2[s.J] {
				out = append(out, s)
			}
		}
	}
	return out
}

// colRec records one instruction column for the second (operand) pass.
type colRec struct {
	mi     *ir.Inst // merged instruction (cloned, operands empty)
	i1, i2 *ir.Inst // source instructions (nil on the gap side)
}

// merger carries the state of one merge code generation. The value maps,
// dispatch memo, column records and clone arena live in the pooled scratch
// (see mergerScratch) so discarded attempts recycle them wholesale.
type merger struct {
	f1, f2     *ir.Func
	seq1, seq2 []linearize.Entry
	steps      []align.Step
	plan       paramPlan
	retTy      *ir.Type

	fn    *ir.Func
	entry *ir.Block
	// cur1 and cur2 are the blocks currently receiving code for each side.
	// They are equal inside a merged (matched) region.
	cur1, cur2 *ir.Block
	sc         *mergerScratch
	stats      Stats
}

func (m *merger) funcID() ir.Value { return m.fn.Params[0] }

// run executes both code-generation passes (§III-E).
func (m *merger) run(name string) error {
	types := m.plan.types
	m.fn = ir.NewFunc(name, ir.FuncOf(m.retTy, types...))
	m.fn.Linkage = ir.InternalLinkage
	m.fn.Params[0].SetName("func_id")
	m.nameParams()
	m.entry = m.fn.NewBlockIn("entry")

	if err := m.passOne(); err != nil {
		return err
	}

	// Terminate the dispatch entry block.
	e1 := m.sc.vmap1[m.f1.Entry()].(*ir.Block)
	e2 := m.sc.vmap2[m.f2.Entry()].(*ir.Block)
	bd := ir.NewBuilder(m.entry)
	if e1 == e2 {
		bd.Br(e1)
	} else {
		bd.CondBr(m.funcID(), e1, e2)
	}

	if err := m.passTwo(); err != nil {
		return err
	}
	m.demoteNonDominated()
	// Clean the scaffolding the two-pass construction leaves behind
	// (forwarding blocks, straight-line splits) before the cost model
	// sizes the function.
	passes.SimplifyCFG(m.fn)
	return nil
}

// nameParams gives merged parameters readable names derived from the
// originals.
func (m *merger) nameParams() {
	for i, p := range m.f1.Params {
		mp := m.fn.Params[m.plan.map1[i]]
		if p.Name() != "" {
			mp.SetName(p.Name())
		}
	}
	for j, p := range m.f2.Params {
		mp := m.fn.Params[m.plan.map2[j]]
		if mp.Name() == "" && p.Name() != "" {
			mp.SetName(p.Name())
		}
	}
}

// passOne walks the aligned columns creating blocks and (operand-less)
// instruction clones, inserting func_id diamonds at divergence points.
func (m *merger) passOne() error {
	for _, s := range m.steps {
		switch s.Op {
		case align.OpMatch:
			e1, e2 := m.seq1[s.I], m.seq2[s.J]
			if e1.IsLabel() {
				m.matchLabel(e1.Block, e2.Block)
			} else {
				// A matched landingpad is only representable when its
				// labels were matched too; otherwise demote the column to
				// a gap pair.
				if e1.Inst.Op == ir.OpLandingPad && m.cur1 != m.cur2 {
					m.gapInst(1, e1.Inst)
					m.gapInst(2, e2.Inst)
					continue
				}
				m.matchInst(e1.Inst, e2.Inst)
			}
			m.stats.MatchedColumns++
		case align.OpGapA:
			e := m.seq1[s.I]
			if e.IsLabel() {
				m.gapLabel(1, e.Block)
			} else {
				m.gapInst(1, e.Inst)
			}
			m.stats.GapColumns++
		case align.OpGapB:
			e := m.seq2[s.J]
			if e.IsLabel() {
				m.gapLabel(2, e.Block)
			} else {
				m.gapInst(2, e.Inst)
			}
			m.stats.GapColumns++
		default:
			return fmt.Errorf("unexpected mismatch column after decomposition")
		}
	}
	return nil
}

func (m *merger) matchLabel(b1, b2 *ir.Block) {
	mb := ir.NewBlock(b1.Name())
	m.fn.AppendBlock(mb)
	m.sc.vmap1[b1] = mb
	m.sc.vmap2[b2] = mb
	m.cur1, m.cur2 = mb, mb
}

func (m *merger) matchInst(i1, i2 *ir.Inst) {
	if m.cur1 != m.cur2 {
		// Reconverge both sides into a fresh shared block.
		mb := ir.NewBlock("")
		m.fn.AppendBlock(mb)
		m.reconnect(m.cur1, mb)
		m.reconnect(m.cur2, mb)
		m.cur1, m.cur2 = mb, mb
	}
	mi := m.cloneShallow(i1)
	m.cur1.Append(mi)
	m.sc.vmap1[i1] = mi
	m.sc.vmap2[i2] = mi
	m.sc.cols = append(m.sc.cols, colRec{mi: mi, i1: i1, i2: i2})
}

// reconnect terminates b with a branch to mb if it is not yet terminated.
func (m *merger) reconnect(b, mb *ir.Block) {
	if b.Terminator() == nil {
		b.Append(ir.NewInst(ir.OpBr, ir.Void(), mb))
	}
}

func (m *merger) gapLabel(side int, b *ir.Block) {
	nb := ir.NewBlock(b.Name())
	m.fn.AppendBlock(nb)
	if side == 1 {
		m.sc.vmap1[b] = nb
		m.cur1 = nb
	} else {
		m.sc.vmap2[b] = nb
		m.cur2 = nb
	}
}

func (m *merger) gapInst(side int, in *ir.Inst) {
	if m.cur1 == m.cur2 {
		// Diverge: split the shared block with a func_id diamond.
		b1 := ir.NewBlock("")
		b2 := ir.NewBlock("")
		m.fn.AppendBlock(b1)
		m.fn.AppendBlock(b2)
		shared := m.cur1
		shared.Append(ir.NewInst(ir.OpBr, ir.Void(), m.funcID(), b1, b2))
		m.cur1, m.cur2 = b1, b2
	}
	mi := m.cloneShallow(in)
	if side == 1 {
		m.cur1.Append(mi)
		m.sc.vmap1[in] = mi
		m.sc.cols = append(m.sc.cols, colRec{mi: mi, i1: in})
	} else {
		m.cur2.Append(mi)
		m.sc.vmap2[in] = mi
		m.sc.cols = append(m.sc.cols, colRec{mi: mi, i2: in})
	}
}

// cloneShallow copies opcode, type, name and attributes without operands.
// Clones come from the scratch arena: most attempts are discarded, and the
// arena recycles their instruction storage wholesale (see mergerScratch).
func (m *merger) cloneShallow(in *ir.Inst) *ir.Inst {
	ni := m.sc.arena.NewInst(in.Op, in.Type())
	ni.SetName(in.Name())
	ni.Pred = in.Pred
	ni.Alloc = in.Alloc
	if in.Clauses != nil {
		ni.Clauses = append([]string(nil), in.Clauses...)
	}
	return ni
}

// resolve maps a source-function operand to its merged-function value.
func (m *merger) resolve(side int, v ir.Value) ir.Value {
	if v == nil {
		return nil
	}
	vm := m.sc.vmap1
	f := m.f1
	pm := m.plan.map1
	if side == 2 {
		vm = m.sc.vmap2
		f = m.f2
		pm = m.plan.map2
	}
	if mv, ok := vm[v]; ok {
		return mv
	}
	if p, ok := v.(*ir.Param); ok && p.Parent() == f {
		return m.fn.Params[pm[p.Index]]
	}
	return v
}

// passTwo assigns operands: shared values directly, diverging values through
// select instructions, diverging labels through dispatch blocks (§III-E).
func (m *merger) passTwo() error {
	for _, c := range m.sc.cols {
		switch {
		case c.i1 != nil && c.i2 != nil:
			if err := m.fillMatched(c); err != nil {
				return err
			}
		case c.i1 != nil:
			m.fillGap(c.mi, 1, c.i1)
		default:
			m.fillGap(c.mi, 2, c.i2)
		}
	}
	return nil
}

func (m *merger) fillGap(mi *ir.Inst, side int, src *ir.Inst) {
	for _, op := range src.Operands() {
		mi.AppendOperand(m.resolve(side, op))
	}
	m.fixupRet(mi)
}

// fixupRet reconciles a ret instruction with the merged return type.
func (m *merger) fixupRet(mi *ir.Inst) {
	if mi.Op != ir.OpRet || m.retTy.IsVoid() {
		return
	}
	blk := mi.Parent()
	if mi.NumOperands() == 0 {
		// Original function returned void; the merged value is discarded
		// at rewritten call sites.
		mi.AppendOperand(ir.NewUndef(m.retTy))
		return
	}
	v := mi.Operand(0)
	if v.Type() != m.retTy {
		mi.SetOperand(0, convertToRet(v, m.retTy, blk, mi))
	}
}

func (m *merger) fillMatched(c colRec) error {
	mi := c.mi
	ops1 := c.i1.Operands()
	ops2 := c.i2.Operands()
	n := len(ops1)

	r1 := make([]ir.Value, n)
	r2 := make([]ir.Value, n)
	for k := 0; k < n; k++ {
		r1[k] = m.resolve(1, ops1[k])
		r2[k] = m.resolve(2, ops2[k])
	}

	// Commutative operand reordering to maximise matching operands and
	// reduce select instructions (§III-E).
	if mi.Op.IsCommutative() && n == 2 {
		direct := sameCount(r1[0], r2[0]) + sameCount(r1[1], r2[1])
		swapped := sameCount(r1[0], r2[1]) + sameCount(r1[1], r2[0])
		if swapped > direct {
			r2[0], r2[1] = r2[1], r2[0]
		}
	}

	for k := 0; k < n; k++ {
		v1, v2 := r1[k], r2[k]
		if v1 == v2 || ir.ConstantsEqual(v1, v2) {
			mi.AppendOperand(v1)
			continue
		}
		b1, isB1 := v1.(*ir.Block)
		b2, isB2 := v2.(*ir.Block)
		if isB1 && isB2 {
			d, err := m.dispatchBlock(b1, b2)
			if err != nil {
				return err
			}
			mi.AppendOperand(d)
			continue
		}
		if isB1 != isB2 {
			return fmt.Errorf("label operand matched against value operand")
		}
		// Diverging values: select on func_id (§III-E).
		sel := ir.NewInst(ir.OpSelect, v1.Type(), m.funcID(), v1, v2)
		mi.Parent().InsertBefore(sel, mi)
		mi.AppendOperand(sel)
		m.stats.Selects++
	}
	m.fixupRet(mi)
	return nil
}

// sameCount returns 1 when the two resolved operands are interchangeable.
func sameCount(a, b ir.Value) int {
	if a == b || ir.ConstantsEqual(a, b) {
		return 1
	}
	return 0
}

// dispatchBlock returns a block that branches to b1 when func_id is true and
// to b2 otherwise, creating and memoizing it on first use. If b1 and b2 are
// landing blocks, their (identical) landingpad is hoisted into the dispatch
// block, which becomes the landing block; b1 and b2 become normal blocks
// (§III-E).
func (m *merger) dispatchBlock(b1, b2 *ir.Block) (*ir.Block, error) {
	key := [2]*ir.Block{b1, b2}
	if d, ok := m.sc.dispatch[key]; ok {
		return d, nil
	}
	landing1, landing2 := b1.IsLandingBlock(), b2.IsLandingBlock()
	d := ir.NewBlock("dispatch")
	m.fn.AppendBlock(d)
	if landing1 != landing2 {
		return nil, fmt.Errorf("unsupported exception shape: landing block dispatched with normal block")
	}
	if landing1 {
		pad1, pad2 := b1.Insts[0], b2.Insts[0]
		if !landingPadsIdentical(pad1, pad2) {
			return nil, fmt.Errorf("unsupported exception shape: dispatched landing blocks with differing pads")
		}
		hoisted := m.cloneShallow(pad1)
		d.Append(hoisted)
		ir.ReplaceAllUsesWith(pad1, hoisted)
		ir.ReplaceAllUsesWith(pad2, hoisted)
		// Future operand resolution must see the hoisted pad, not the
		// removed clones.
		for k, v := range m.sc.vmap1 {
			if v == pad1 || v == pad2 {
				m.sc.vmap1[k] = hoisted
			}
		}
		for k, v := range m.sc.vmap2 {
			if v == pad1 || v == pad2 {
				m.sc.vmap2[k] = hoisted
			}
		}
		pad1.RemoveFromParent()
		pad2.RemoveFromParent()
	}
	d.Append(ir.NewInst(ir.OpBr, ir.Void(), m.funcID(), b1, b2))
	m.sc.dispatch[key] = d
	m.stats.DispatchBlocks++
	return d, nil
}

// demoteNonDominated restores SSA validity after merging: a definition from
// one function's divergent region can reach a shared use over a path that
// bypasses it (the path of the other function). Such values are demoted to
// entry-block allocas — the moral equivalent of the reg2mem preprocessing
// the paper's implementation relies on. Demoted slots read as zero on paths
// that never stored, which is only observable in select arms that func_id
// discards.
func (m *merger) demoteNonDominated() {
	f := m.fn
	dt := ir.ComputeDomTree(f)
	var offenders []*ir.Inst
	f.Insts(func(in *ir.Inst) {
		if in.Type().IsVoid() || in.Type() == ir.Token() {
			return
		}
		if !dt.Reachable(in.Parent()) {
			return
		}
		for _, u := range in.Uses() {
			if u.User.Parent() == nil || !dt.Reachable(u.User.Parent()) {
				continue
			}
			if !dt.InstDominates(in, u.User, u.Index) {
				offenders = append(offenders, in)
				return
			}
		}
	})
	if len(offenders) == 0 {
		return
	}
	entryTerm := m.entry.Terminator()
	for _, def := range offenders {
		slot := ir.NewInst(ir.OpAlloca, ir.PointerTo(def.Type()))
		slot.Alloc = def.Type()
		m.entry.InsertBefore(slot, entryTerm)

		// Store the value right after its definition. Invokes define their
		// value only along the normal edge, so split that edge.
		if def.Op == ir.OpInvoke {
			normal := def.InvokeNormal()
			eb := ir.NewBlock("")
			f.AppendBlock(eb)
			eb.Append(ir.NewInst(ir.OpStore, ir.Void(), def, slot))
			eb.Append(ir.NewInst(ir.OpBr, ir.Void(), normal))
			def.SetOperand(def.NumOperands()-2, eb)
		} else {
			blk := def.Parent()
			idx := indexOf(blk, def)
			st := ir.NewInst(ir.OpStore, ir.Void(), def, slot)
			if idx+1 < len(blk.Insts) {
				blk.InsertBefore(st, blk.Insts[idx+1])
			} else {
				blk.Append(st)
			}
		}

		// Replace every other use with a load inserted before the user.
		ir.RewriteUses(def, func(u ir.Use) ir.Value {
			if u.User.Op == ir.OpStore && u.User.Operand(1) == slot {
				return nil
			}
			ld := ir.NewInst(ir.OpLoad, def.Type(), slot)
			u.User.Parent().InsertBefore(ld, u.User)
			return ld
		})
	}
}

func indexOf(b *ir.Block, in *ir.Inst) int {
	for i, x := range b.Insts {
		if x == in {
			return i
		}
	}
	panic("core: instruction not in block")
}

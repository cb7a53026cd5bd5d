// Package linearize flattens function CFGs into sequences of labels and
// instructions, the representation consumed by sequence alignment
// (paper §III-B). The traversal order does not affect correctness of the
// merge, only its effectiveness; the paper empirically chose reverse
// post-order with canonical successor ordering, which is the default here.
package linearize

import "fmsa/internal/ir"

// Entry is one element of a linearized function: either a block label or an
// instruction. Exactly one of Block and Inst is non-nil.
type Entry struct {
	Block *ir.Block
	Inst  *ir.Inst
}

// IsLabel reports whether the entry is a block label.
func (e Entry) IsLabel() bool { return e.Block != nil }

// Order selects the block traversal order used for linearization.
type Order int

// Traversal orders. OrderRPO is the paper's choice; the others exist for the
// linearization-order ablation study.
const (
	// OrderRPO is reverse post-order with canonical successor ordering.
	OrderRPO Order = iota
	// OrderDFS is depth-first preorder from the entry block.
	OrderDFS
	// OrderLayout is the syntactic block order of the function body.
	OrderLayout
)

// String returns the name of the order.
func (o Order) String() string {
	switch o {
	case OrderRPO:
		return "rpo"
	case OrderDFS:
		return "dfs"
	case OrderLayout:
		return "layout"
	default:
		return "unknown"
	}
}

// Linearize flattens f using reverse post-order traversal.
func Linearize(f *ir.Func) []Entry {
	return LinearizeOrder(f, OrderRPO)
}

// LinearizeOrder flattens f using the given traversal order. Each reachable
// block contributes its label followed by its instructions in block order;
// CFG edges remain implicit in branch operands (paper §III-B, Fig. 4).
func LinearizeOrder(f *ir.Func, order Order) []Entry {
	var blocks []*ir.Block
	switch order {
	case OrderRPO:
		blocks = ir.ReversePostOrder(f)
	case OrderDFS:
		blocks = dfsOrder(f)
	case OrderLayout:
		blocks = reachableInLayout(f)
	default:
		panic("linearize: unknown order")
	}
	n := len(blocks)
	for _, b := range blocks {
		n += len(b.Insts)
	}
	seq := make([]Entry, 0, n)
	for _, b := range blocks {
		seq = append(seq, Entry{Block: b})
		for _, in := range b.Insts {
			seq = append(seq, Entry{Inst: in})
		}
	}
	return seq
}

func dfsOrder(f *ir.Func) []*ir.Block {
	if f.IsDecl() {
		return nil
	}
	seen := map[*ir.Block]bool{}
	var order []*ir.Block
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		order = append(order, b)
		for _, s := range b.Successors() {
			visit(s)
		}
	}
	visit(f.Entry())
	return order
}

func reachableInLayout(f *ir.Func) []*ir.Block {
	if f.IsDecl() {
		return nil
	}
	reach := map[*ir.Block]bool{}
	var mark func(b *ir.Block)
	mark = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Successors() {
			mark(s)
		}
	}
	mark(f.Entry())
	var order []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			order = append(order, b)
		}
	}
	return order
}

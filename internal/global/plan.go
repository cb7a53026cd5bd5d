package global

import (
	"fmt"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
	"fmsa/internal/wire"
)

// Ref names one summarized definition: the unit's index in the summary
// table and the function name within it.
type Ref struct {
	TU   int
	Name string
}

// Fold plans one hash-equality group: every member's body is replaced by a
// thunk forwarding to the leader. NewName, when non-empty, renames the
// leader (promoting it to external linkage) so members in other units can
// reference it without colliding with their own internal symbols.
type Fold struct {
	Leader  Ref
	Members []Ref
	NewName string
}

// Pair plans one optimistic merge: G is imported into F1's unit, merged
// against F1 there, and both originals become thunks. MergedName is the
// globally unique external name the merged body publishes when the pair
// crosses units (same-unit pairs keep an internal merged function).
type Pair struct {
	F1, G      Ref
	CrossTU    bool
	MergedName string
	Jaccard    float64
}

// Plan is the round-2 work list. It is a pure function of the summaries:
// no unit body or worker count feeds it, which is what makes parallel
// execution bit-identical by construction.
type Plan struct {
	Folds []Fold
	Pairs []Pair
	// ProbePairs counts LSH candidate pairs the planner considered with
	// summary MinHash estimates — the work that replaces the monolithic
	// pipeline's cross-unit exact scoring.
	ProbePairs int
}

const (
	// minJaccard is the summary-estimate floor for planning a merge pair.
	minJaccard = 0.5
	// foldMinInsts is the minimum definition size worth thunking to a
	// structurally identical leader.
	foldMinInsts = 4
)

// localOnly reports that a function's behavior depends on module-local
// state, pinning any cross-unit role it could play.
func localOnly(fs *wire.FuncSummary) bool {
	return fs.Flags&(wire.SumUsesGlobals|wire.SumUsesInternal) != 0
}

// BuildPlan derives the round-2 work list from the round-1 summaries. The
// traversal order is the summaries' own order (unit index, then definition
// index), every grouping key is content-derived, and ties break on that
// global order — the plan is deterministic. Candidates come from an LSH
// index under lsh.DefaultParams.
func BuildPlan(tus []wire.TUSummary) *Plan {
	plan := &Plan{}

	// Flatten with global indices, and collect every definition name for
	// collision-free new-name selection.
	type entry struct {
		ref Ref
		fs  *wire.FuncSummary
	}
	var entries []entry
	defNames := map[string]bool{}
	internalDefs := map[int]map[string]bool{} // per TU: internal def names
	for t := range tus {
		internalDefs[t] = map[string]bool{}
		for i := range tus[t].Funcs {
			fs := &tus[t].Funcs[i]
			entries = append(entries, entry{Ref{t, fs.Name}, fs})
			defNames[fs.Name] = true
			if fs.Linkage == ir.InternalLinkage {
				internalDefs[t][fs.Name] = true
			}
		}
	}
	taken := func(name string) bool { return defNames[name] }
	freshName := func(base string) string {
		if !taken(base) {
			defNames[base] = true
			return base
		}
		for i := 1; ; i++ {
			name := fmt.Sprintf("%s.%d", base, i)
			if !taken(name) {
				defNames[name] = true
				return name
			}
		}
	}

	used := make([]bool, len(entries))
	foldable := func(e entry) bool {
		return e.fs.Flags&wire.SumSelfEq != 0 &&
			e.fs.Flags&wire.SumVariadic == 0 &&
			e.fs.Size >= foldMinInsts &&
			e.fs.Name != "main"
	}

	// Folds: group by stable hash. Local-only functions group per unit —
	// their bodies reference unit-local state, so equal hashes across units
	// do not mean equal behavior.
	groups := map[string][]int{}
	var groupOrder []string
	for gi, e := range entries {
		if !foldable(e) {
			continue
		}
		key := fmt.Sprintf("%016x", e.fs.Hash)
		if localOnly(e.fs) {
			key = fmt.Sprintf("%d/%s", e.ref.TU, key)
		}
		if _, ok := groups[key]; !ok {
			groupOrder = append(groupOrder, key)
		}
		groups[key] = append(groups[key], gi)
	}
	for _, key := range groupOrder {
		g := groups[key]
		if len(g) < 2 {
			continue
		}
		leader := entries[g[0]]
		crossTU := false
		for _, gi := range g[1:] {
			if entries[gi].ref.TU != leader.ref.TU {
				crossTU = true
			}
		}
		fold := Fold{Leader: leader.ref}
		leaderName := leader.fs.Name
		if crossTU && leader.fs.Linkage == ir.InternalLinkage {
			// Promote under a fresh content-derived name: the leader's own
			// name is unit-local and may shadow unrelated internals
			// elsewhere. External leaders keep their name — it is already
			// the global symbol other units link against.
			fold.NewName = freshName(fmt.Sprintf("gf.%016x", leader.fs.Hash))
			leaderName = fold.NewName
		}
		for _, gi := range g[1:] {
			m := entries[gi]
			if m.ref.TU != leader.ref.TU && internalDefs[m.ref.TU][leaderName] {
				// The member's unit defines an unrelated internal symbol
				// with the leader's name; a declaration cannot reach the
				// leader from there.
				continue
			}
			fold.Members = append(fold.Members, m.ref)
			used[gi] = true
		}
		if len(fold.Members) == 0 {
			continue
		}
		used[g[0]] = true
		plan.Folds = append(plan.Folds, fold)
	}

	// Pairs: LSH over the summary signatures, greedy forward matching in
	// global order, best candidate by (estimated Jaccard desc, index asc).
	index := lsh.New(lsh.DefaultParams())
	sigs := make([]*fingerprint.Signature, len(entries))
	for gi := range entries {
		if used[gi] {
			continue
		}
		e := entries[gi]
		if e.fs.Flags&wire.SumVariadic != 0 || e.fs.Name == "main" {
			continue
		}
		// The wire layer round-trips MinHash lanes without interpreting
		// them; validate the lane count here, where the signature becomes
		// an LSH key. Mismatched summaries (foreign lane counts) simply
		// never pair.
		if len(e.fs.MinHash) != fingerprint.SigLanes {
			continue
		}
		var sig fingerprint.Signature
		copy(sig[:], e.fs.MinHash)
		sigs[gi] = &sig
		index.Insert(int32(gi), sigs[gi])
	}
	for gi := range entries {
		if used[gi] || sigs[gi] == nil {
			continue
		}
		e := entries[gi]
		best, bestJac := -1, 0.0
		for _, cid := range index.Probe(sigs[gi], int32(gi)) {
			ci := int(cid)
			if ci <= gi || used[ci] || sigs[ci] == nil {
				continue
			}
			c := entries[ci]
			if c.ref.TU != e.ref.TU && localOnly(c.fs) {
				// Importing c would drag unit-local references along.
				continue
			}
			plan.ProbePairs++
			jac := fingerprint.EstimateJaccard(sigs[gi], sigs[ci])
			if jac > bestJac || (jac == bestJac && best != -1 && ci < best) {
				best, bestJac = ci, jac
			}
		}
		if best == -1 || bestJac < minJaccard {
			continue
		}
		g := entries[best]
		pair := Pair{
			F1: e.ref, G: g.ref,
			CrossTU: e.ref.TU != g.ref.TU,
			Jaccard: bestJac,
		}
		if pair.CrossTU {
			pair.MergedName = freshName(fmt.Sprintf("gm.%d.%s.%d.%s",
				e.ref.TU, e.ref.Name, g.ref.TU, g.ref.Name))
		}
		used[gi], used[best] = true, true
		plan.Pairs = append(plan.Pairs, pair)
	}
	return plan
}

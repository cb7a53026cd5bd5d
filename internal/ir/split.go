package ir

import (
	"fmt"
	"slices"
	"sort"
)

// SplitModule partitions a module's function definitions round-robin into n
// translation units, the inverse of LinkModules. Cross-unit references
// become declarations in the referring unit; internal functions that end up
// referenced across units are promoted to external linkage (with a unique
// name) so the units link back together. @main, when present, stays in the
// first unit.
//
// Assignment and unit-internal order follow the symbol names, not the
// module's arrival order, so two modules that define the same functions in
// different orders split into textually identical units — the invariant
// sharded global merging builds its bit-identity on.
//
// Splitting costs O(n·functions + instructions). Each unit clones all of
// its definitions through one value map, which CloneBody extends in place,
// and prunes its unused declarations in one pass. Sharing the map is
// sound: every key is a source value, and each parameter, block and
// instruction belongs to exactly one function. A verified module never
// names another function's locals, so entries of different bodies can
// neither collide nor leak into each other's clones.
//
// Together with LinkModules this models the paper's Fig. 9 pipeline: a
// program split into per-file units, compiled separately, then linked and
// optimized as one module. Modules with globals are not supported (the
// textual IR has no global declarations).
func SplitModule(m *Module, n int) ([]*Module, error) {
	if n < 1 {
		return nil, fmt.Errorf("split: need at least one unit")
	}
	if len(m.Globals) > 0 {
		return nil, fmt.Errorf("split: modules with globals are not supported")
	}

	// Name-sorted view of the symbol table: drives both unit assignment and
	// unit-internal placement so the result is input-order invariant.
	sorted := append([]*Func(nil), m.Funcs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })

	// Assign definitions to units.
	unitOf := map[*Func]int{}
	next := 0
	for _, f := range sorted {
		if f.IsDecl() {
			continue
		}
		if f.Name() == "main" {
			unitOf[f] = 0
			continue
		}
		unitOf[f] = next % n
		next++
	}

	// Promote internal functions referenced from another unit.
	for _, f := range m.Funcs {
		if f.IsDecl() || f.Linkage != InternalLinkage {
			continue
		}
		crossUnit := false
		for _, u := range f.Uses() {
			user := u.User.Parent().Parent()
			if unitOf[user] != unitOf[f] {
				crossUnit = true
				break
			}
		}
		if crossUnit {
			f.Linkage = ExternalLinkage
		}
	}

	units := make([]*Module, n)
	for k := range units {
		units[k] = NewModule(fmt.Sprintf("%s.unit%d", m.Name, k))
	}

	for k, unit := range units {
		// Value map: every module-level function maps to this unit's
		// instance — a clone shell for assigned definitions, a declaration
		// otherwise (pruned later if unused). CloneBody adds the locals.
		vmap := map[Value]Value{}
		var clones []*Func
		for _, f := range sorted {
			local := NewFunc(f.Name(), f.Sig())
			if !f.IsDecl() && unitOf[f] == k {
				local.Linkage = f.Linkage
				local.Hotness = f.Hotness
				clones = append(clones, f)
			} else {
				local.Linkage = ExternalLinkage
			}
			unit.AddFunc(local)
			vmap[f] = local
		}
		for _, f := range clones {
			dst := vmap[f].(*Func)
			for i, p := range f.Params {
				dst.Params[i].SetName(p.Name())
				vmap[p] = dst.Params[i]
			}
			CloneBody(f, dst, vmap)
		}
		// Prune unused declarations in one pass.
		unit.Funcs = slices.DeleteFunc(unit.Funcs, func(f *Func) bool {
			if !f.IsDecl() || f.NumUses() > 0 {
				return false
			}
			delete(unit.funcByName, f.name)
			f.parent = nil
			return true
		})
	}
	return units, nil
}

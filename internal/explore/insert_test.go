package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedPrefix is the collect→sort→truncate oracle: set ranked by
// (similarity desc, size desc, pool index asc), cut to n entries (all of
// them when n < 0). It shares nothing with before or insertBounded.
func sortedPrefix(set []candidate, n int) []candidate {
	all := append([]candidate(nil), set...)
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		if all[a].size != all[b].size {
			return all[a].size > all[b].size
		}
		return all[a].pi < all[b].pi
	})
	if n >= 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

func sameKeys(a, b []candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtCands(cs []candidate) string {
	s := ""
	for _, c := range cs {
		s += fmt.Sprintf(" (%.1f,%d,%d)", c.sim, c.size, c.pi)
	}
	return s
}

// TestInsertBoundedExactPrefix property-tests the one bounded insert and
// its floor. Candidates come from a tiny (similarity, size) space so ties
// are common and only the pool index separates them; pool indices are a
// random permutation, so arrival order says nothing about them. Each case
// starts from an exact prefix of a random initial set — complete (shorter
// than depth), or a window marked incomplete (sometimes even when it holds
// the whole set) —
// or, as a scan does, from an empty complete list, and inserts the
// remaining candidates in random order at depths 1–8. After every insert:
//
//   - the list is an exact prefix of the sorted set of everything inserted
//     or initially present, at most depth long;
//   - a complete list is that whole set;
//   - a candidate ranking before the stored tail is stored, and a complete
//     list whose set stays below the depth stays complete;
//   - a candidate below insertFloor leaves the list unchanged.
//
// A scan from an empty complete list ends exactly at the oracle's top-depth.
func TestInsertBoundedExactPrefix(t *testing.T) {
	sims := []float64{0.2, 0.5, 0.8}
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		perm := rng.Perm(n)
		univ := make([]candidate, n)
		for i := range univ {
			univ[i] = candidate{sim: sims[rng.Intn(len(sims))], size: int32(1 + rng.Intn(3)), pi: int32(perm[i])}
		}
		rng.Shuffle(n, func(a, b int) { univ[a], univ[b] = univ[b], univ[a] })
		depth := 1 + rng.Intn(8)
		minSim := []float64{0, 0.5}[rng.Intn(2)]
		qualifying := func(cs []candidate) []candidate {
			var out []candidate
			for _, c := range cs {
				if c.sim >= minSim {
					out = append(out, c)
				}
			}
			return out
		}

		// The initial state: a scan's empty complete list, or an exact
		// prefix of a random initial set, stored completely or as a window
		// marked incomplete.
		scan := seed%4 == 0
		var set, cands []candidate
		complete := true
		arrivals := univ
		if !scan {
			k := rng.Intn(n + 1)
			set, arrivals = qualifying(univ[:k]), univ[k:]
			w := min(len(set), depth)
			if rng.Intn(2) == 0 && w > 0 {
				w = rng.Intn(w + 1)
			}
			complete = w == len(set) && w < depth && rng.Intn(3) > 0
			cands = sortedPrefix(set, w)
		}
		set = append([]candidate(nil), set...)
		for _, c := range arrivals {
			if c.sim < minSim {
				continue
			}
			prev := append([]candidate(nil), cands...)
			wasComplete := complete
			floor := insertFloor(cands, depth, complete, minSim)
			cands, complete = insertBounded(cands, c, depth, complete)
			set = append(set, c)
			ctx := func() string {
				return fmt.Sprintf("seed %d depth %d: %s into%s (complete %t) gave%s (complete %t); set%s",
					seed, depth, fmtCands([]candidate{c}), fmtCands(prev), wasComplete, fmtCands(cands), complete, fmtCands(sortedPrefix(set, -1)))
			}
			if len(cands) > depth {
				t.Fatalf("over depth: %s", ctx())
			}
			if !sameKeys(cands, sortedPrefix(set, len(cands))) {
				t.Fatalf("not an exact prefix: %s", ctx())
			}
			if complete && len(cands) != len(set) {
				t.Fatalf("complete list misses members: %s", ctx())
			}
			if wasComplete && len(set) < depth && !complete {
				t.Fatalf("complete list lost its flag: %s", ctx())
			}
			if len(prev) > 0 && sortedPrefix([]candidate{c, prev[len(prev)-1]}, 1)[0] == c {
				found := false
				for _, x := range cands {
					found = found || x == c
				}
				if !found {
					t.Fatalf("candidate ranking before the tail was dropped: %s", ctx())
				}
			}
			if c.sim < floor && !sameKeys(cands, prev) {
				t.Fatalf("candidate below floor %.1f entered: %s", floor, ctx())
			}
		}
		if want := sortedPrefix(qualifying(univ), depth); scan && !sameKeys(cands, want) {
			t.Fatalf("seed %d depth %d: scan gave%s, oracle%s", seed, depth, fmtCands(cands), fmtCands(want))
		}
	}
}

// Command fmsa-db inspects and maintains a persistent similarity database
// segment (internal/simdb, DESIGN.md §14) — the on-disk store behind
// `fmsa -db` and `fmsa-serve -db`.
//
//	fmsa-db -db corpus.fmdb stats
//	fmsa-db -db corpus.fmdb ingest tu0.ll tu1.fmir   # index modules
//	fmsa-db -db corpus.fmdb query glist_add_float32  # merge candidates
//	fmsa-db -db corpus.fmdb remove glist_add_float32
//	fmsa-db -db corpus.fmdb compact
//
// stats also counts the segment's content keys and negative-attempt
// entries, the memo state fmsa-serve and `fmsa -db` sessions persist.
//
// query probes the banded LSH index rehydrated from the segment — no
// signature is recomputed — and prints candidates ordered by estimated
// Jaccard similarity: the corpus-scale "what could merge with f?" lookup
// that otherwise requires a whole batch run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"fmsa/internal/fingerprint"
	"fmsa/internal/global"
	"fmsa/internal/lsh"
	"fmsa/internal/passes"
	"fmsa/internal/simdb"
	"fmsa/internal/wire"
)

func main() {
	var (
		dbPath  = flag.String("db", "", "similarity database segment path (required)")
		name    = flag.String("name", "fmsa-db", "store label when creating a new segment")
		topK    = flag.Int("top", 10, "query: maximum candidates printed")
		workers = flag.Int("workers", 0, "ingest: concurrent file loads (0 = all cores)")
	)
	flag.Parse()
	if *dbPath == "" || flag.NArg() < 1 {
		usage()
	}
	store, err := simdb.Open(*dbPath, *name, simdb.Options{})
	fatal(err)

	switch cmd := flag.Arg(0); cmd {
	case "stats":
		printStats(store)
	case "compact":
		fatal(store.Compact())
		st := store.Stats()
		fmt.Printf("compacted: %d live records, %d bytes\n", st.Live, st.SegmentBytes)
	case "ingest":
		if flag.NArg() < 2 {
			usage()
		}
		ingest(store, flag.Args()[1:], *workers)
	case "query":
		if flag.NArg() != 2 {
			usage()
		}
		query(store, flag.Arg(1), *topK)
	case "remove":
		if flag.NArg() != 2 {
			usage()
		}
		remove(store, flag.Arg(1))
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func printStats(store *simdb.Store) {
	st := store.Stats()
	fmt.Printf("store:         %s (%s)\n", st.Name, st.Path)
	fmt.Printf("live records:  %d (%d signed)\n", st.Live, st.Signed)
	fmt.Printf("file entries:  %d (%d dead)\n", st.Written, st.Dead)
	fmt.Printf("content keys:  %d (%d collided)\n", st.Keys, st.Collided)
	fmt.Printf("attempts:      %d\n", st.Attempts)
	fmt.Printf("segment bytes: %d\n", st.SegmentBytes)
	fmt.Printf("compactions:   %d\n", st.Compactions)
	if st.TailBytes > 0 {
		fmt.Printf("crash tail:    %d bytes (skipped; truncated at next flush or compact)\n", st.TailBytes)
	}
}

// ingest indexes every definition of the given modules: stable key,
// fingerprint and MinHash signature per function, then one flush.
func ingest(store *simdb.Store, paths []string, workers int) {
	units, err := wire.LoadFiles(paths, workers)
	fatal(err)
	added := 0
	for _, m := range units {
		passes.DemotePhisModule(m)
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			key, selfEq := global.AppendStableKey(nil, f)
			fp := fingerprint.Compute(f)
			store.Put(simdb.Record{
				Hash: global.HashStableKey(key), Name: f.Name(), Linkage: f.Linkage,
				SelfEq: selfEq, Size: fp.Total, Key: key, Fp: fp,
				Sig: fingerprint.ComputeSignature(f),
			})
			added++
		}
	}
	fatal(store.Flush())
	st := store.Stats()
	fmt.Printf("ingested %d definitions from %d files: %d live records, %d bytes\n",
		added, len(units), st.Live, st.SegmentBytes)
}

// query probes the rehydrated index with the named function's stored
// signature and prints candidates by estimated Jaccard, descending.
func query(store *simdb.Store, fname string, topK int) {
	ix, recs := store.Rehydrate(lsh.Params{})
	self := int32(-1)
	var target *simdb.Record
	for id, r := range recs {
		if r.Name == fname {
			self = int32(id)
			target = r
			break
		}
	}
	if target == nil {
		fatal(fmt.Errorf("no live record named %q", fname))
	}
	if target.Sig == nil {
		fatal(fmt.Errorf("record %q is unsigned (exact-ranking producer); re-ingest to sign it", fname))
	}
	type cand struct {
		rec     *simdb.Record
		jaccard float64
	}
	var cands []cand
	for _, id := range ix.Probe(target.Sig, self) {
		r := recs[id]
		cands = append(cands, cand{r, fingerprint.EstimateJaccard(target.Sig, r.Sig)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].jaccard != cands[j].jaccard {
			return cands[i].jaccard > cands[j].jaccard
		}
		return cands[i].rec.Name < cands[j].rec.Name
	})
	fmt.Printf("%s: %d bucket-mates among %d live records\n", fname, len(cands), len(recs))
	for i, c := range cands {
		if i >= topK {
			fmt.Printf("... and %d more\n", len(cands)-topK)
			break
		}
		fmt.Printf("  %-40s jaccard≈%.3f size=%d\n", c.rec.Name, c.jaccard, c.rec.Size)
	}
}

// remove tombstones every live record with the given name (names are not
// unique across content variants; all of them go).
func remove(store *simdb.Store, fname string) {
	n := 0
	for _, r := range store.Live() {
		if r.Name == fname {
			store.Remove(r.Hash, r.Key)
			n++
		}
	}
	if n == 0 {
		fatal(fmt.Errorf("no live record named %q", fname))
	}
	fatal(store.Flush())
	fmt.Printf("removed %d record(s) named %s\n", n, fname)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fmsa-db -db <segment> {stats | compact | ingest <files...> | query <func> | remove <func>}")
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmsa-db:", err)
		os.Exit(1)
	}
}

// Command fmsa-serve runs the warm merge-session daemon: clients open
// sessions, stream fmir modules over the frame protocol and get merge
// reports back, with repeat submissions of a mostly-unchanged corpus paying
// delta cost instead of a cold exploration (see internal/serve and
// DESIGN.md §13).
//
//	fmsa-serve -addr 127.0.0.1:7333 -threshold 10 -ranking lsh
//
// Admission is bounded: beyond -maxinflight concurrently admitted submits,
// clients receive Busy (429-style) responses and retry. SIGINT/SIGTERM
// drain gracefully — admitted work finishes and its results are delivered
// before the process exits. -pprof exposes net/http/pprof on a separate
// listener for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/serve"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7333", "listen address")
		threshold   = flag.Int("threshold", 1, "default exploration threshold (t); sessions may override")
		target      = flag.String("target", "x86-64", "cost-model target: x86-64 or thumb")
		workers     = flag.Int("workers", 0, "worker goroutines per merge (0 = all cores; results are identical for any value)")
		ranking     = flag.String("ranking", "exact", "default candidate ranking: exact or lsh; sessions may override")
		verifyLvl   = flag.String("verify", "full", "IR verification level inside exploration: off, fast or full")
		maxInFlight = flag.Int("maxinflight", serve.DefaultMaxInFlight, "admitted-but-unfinished submits across all sessions; beyond it clients get Busy")
		maxPayload  = flag.Int("maxpayload", 0, "largest accepted frame payload in bytes (0 = default)")
		dbPath      = flag.String("db", "", "persistent similarity database segment shared by all sessions and restarts (empty = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		drainWait   = flag.Duration("drain", time.Minute, "graceful-drain budget on SIGINT/SIGTERM before connections are severed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: fmsa-serve [flags]")
		flag.Usage()
		os.Exit(2)
	}

	opts := explore.DefaultOptions()
	opts.Threshold = *threshold
	opts.Workers = *workers
	mode, err := explore.ParseRankingMode(*ranking)
	fatal(err)
	opts.Ranking = mode
	level, err := ir.ParseVerifyLevel(*verifyLvl)
	fatal(err)
	opts.Verify = level
	tgt := tti.ByName(*target)
	if tgt == nil {
		fatal(fmt.Errorf("unknown target %q", *target))
	}
	opts.Target = tgt

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "fmsa-serve: pprof: %v\n", err)
			}
		}()
	}

	var store *simdb.Store
	if *dbPath != "" {
		store, err = simdb.Open(*dbPath, "fmsa-serve", simdb.Options{})
		fatal(err)
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "fmsa-serve: similarity db %s: %d live records (%d signed), %d bytes\n",
			*dbPath, st.Live, st.Signed, st.SegmentBytes)
	}

	srv := serve.New(serve.Config{
		Explore:     opts,
		MaxInFlight: *maxInFlight,
		MaxPayload:  *maxPayload,
		Store:       store,
	})
	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Fprintf(os.Stderr, "fmsa-serve: listening on %s (threshold %d, ranking %s, maxinflight %d)\n",
		ln.Addr(), *threshold, mode, *maxInFlight)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "fmsa-serve: %v: draining (up to %v)\n", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "fmsa-serve: drain incomplete: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "fmsa-serve: drained")
	case err := <-done:
		if err != nil && err != serve.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmsa-serve:", err)
		os.Exit(1)
	}
}

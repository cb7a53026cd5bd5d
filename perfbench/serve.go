package main

// The serve-delta workload: an in-process fmsa-serve daemon on loopback,
// backed by a simdb segment, with two clients each running a closed loop of
// 1%-delta resubmissions over their own session on the 445.gobmk-class
// corpus (~630 functions, above the LSH pool cutoff).

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/serve"
	"fmsa/internal/simdb"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

const (
	// serveClients is the closed-loop client count: one per core.
	serveClients = 2
	// deltaFrac is the share of a client's corpus each submit edits.
	deltaFrac = 0.01
	// minSubmits is the fewest warm submits a run measures, so that at
	// least ten lie beyond the 90th percentile.
	minSubmits = 100
	// replaySubmits is the length of the traced replay through
	// explore.Session.
	replaySubmits = 30
	// coldRounds is how many store-backed cold submits each client makes
	// per set-up; their latencies are serve-delta's compile_s samples.
	coldRounds = 2
)

// submitCounts returns the run's minimum warm submits and replay length.
func (c config) submitCounts() (minimum, replay int) {
	if c.quick {
		return 10, 4
	}
	return minSubmits, replaySubmits
}

// serveCorpus generates the workload's corpus in the layout of seed.
func serveCorpus(seed int64) *ir.Module {
	m := workload.Build(specProfile("445.gobmk"))
	relayout(m, seed, serveSeed)
	return m
}

func serveOpts() explore.Options {
	o := explore.DefaultOptions()
	o.Threshold = 10
	o.Workers = 1
	o.Ranking = explore.RankLSH
	return o
}

// editFor returns the edit salt of client c's k-th resubmission (k >= 1):
// clients edit disjoint, moving windows of the shared corpus.
func editFor(c, k int) int { return k*serveClients + c }

// mutate bumps one integer constant in frac of m's definitions, choosing a
// window that moves with salt, so every edit changes a fresh set of
// functions' stable hashes.
func mutate(m *ir.Module, frac float64, salt int) {
	defs := m.Definitions()
	want := max(1, int(float64(len(defs))*frac))
	edited := 0
	for off := 0; off < len(defs) && edited < want; off++ {
		if bumpConst(defs[(off+salt*want)%len(defs)], int64(salt)+1) {
			edited++
		}
	}
}

// bumpConst adds by to the first integer constant operand in f.
func bumpConst(f *ir.Func, by int64) bool {
	done := false
	f.Insts(func(in *ir.Inst) {
		for i := 0; i < in.NumOperands() && !done; i++ {
			if ci, ok := in.Operand(i).(*ir.ConstInt); ok {
				in.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+by))
				done = true
			}
		}
	})
	return done
}

// daemon is one in-process fmsa-serve instance on a loopback port.
type daemon struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startDaemon(store *simdb.Store) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		// A client may send its next submit before the server has released
		// the admission slot of the result it just read, so each client can
		// briefly hold two slots.
		srv:  serve.New(serve.Config{Explore: serveOpts(), MaxInFlight: 2 * serveClients, Store: store}),
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its accept loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	return err
}

// client is one closed-loop client: a connection, a session and its own
// copy of the corpus.
type client struct {
	cl   *serve.Client
	sess uint64
	m    *ir.Module
}

func dialClient(addr string, m *ir.Module) (*client, error) {
	cl, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	sess, err := cl.Open(nil)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &client{cl: cl, sess: sess, m: m}, nil
}

// submit sends module bytes into the client's session and waits for the
// result, returning the client-observed latency.
func (c *client) submit(sess uint64, b []byte) (serve.Result, time.Time, time.Time, error) {
	t0 := time.Now()
	p, err := c.cl.Submit(sess, b)
	if err != nil {
		return serve.Result{}, t0, time.Now(), err
	}
	res, err := p.Wait()
	return res, t0, time.Now(), err
}

// serveSetup is one set-up: a daemon fills a fresh segment from the base
// corpus and stops; a second daemon restarts onto the segment and both
// clients make their store-backed cold submits.
type serveSetup struct {
	dir     string
	d       *daemon
	clients []*client
	base    []byte
	// cold and coldLat are the store-backed cold submits' results and
	// client latencies in seconds.
	cold      []serve.Result
	coldLat   []float64
	openStart time.Time
	openEnd   time.Time
	segBytes  int64
}

func (s *serveSetup) close() {
	for _, c := range s.clients {
		c.cl.Close()
	}
	if s.d != nil {
		s.d.stop()
	}
	os.RemoveAll(s.dir)
}

func newServeSetup(cfg config) (_ *serveSetup, err error) {
	s := &serveSetup{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	m := serveCorpus(cfg.seed)
	if s.base, err = wire.Encode(m); err != nil {
		return s, err
	}
	if err = os.MkdirAll(filepath.Join(cfg.stateDir, "tmp"), 0o755); err != nil {
		return s, err
	}
	if s.dir, err = os.MkdirTemp(filepath.Join(cfg.stateDir, "tmp"), "serve-delta-"); err != nil {
		return s, err
	}
	seg := filepath.Join(s.dir, "corpus.fmdb")

	// Fill: one daemon takes the base corpus cold and writes the segment.
	store, err := simdb.Open(seg, m.Name, simdb.Options{})
	if err != nil {
		return s, err
	}
	fill, err := startDaemon(store)
	if err != nil {
		return s, err
	}
	c, err := dialClient(fill.addr, nil)
	if err == nil {
		_, _, _, err = c.submit(c.sess, s.base)
		c.cl.Close()
	}
	if serr := fill.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return s, fmt.Errorf("filling the segment: %w", err)
	}

	// Restart onto the same segment.
	s.openStart = time.Now()
	store, err = simdb.Open(seg, m.Name, simdb.Options{})
	s.openEnd = time.Now()
	if err != nil {
		return s, err
	}
	s.segBytes = store.Stats().SegmentBytes
	if s.d, err = startDaemon(store); err != nil {
		return s, err
	}
	for i := 0; i < serveClients; i++ {
		m, err := wire.Decode(s.base, wire.Options{Workers: 1})
		if err != nil {
			return s, err
		}
		c, err := dialClient(s.d.addr, m)
		if err != nil {
			return s, err
		}
		s.clients = append(s.clients, c)
	}
	// Cold rounds: each client in turn, into a fresh session after the
	// first round (closed again after its submit), so every submit is a
	// store-backed cold compile measured without a concurrent one.
	for round := 0; round < coldRounds; round++ {
		for _, c := range s.clients {
			sess := c.sess
			if round > 0 {
				if sess, err = c.cl.Open(nil); err != nil {
					return s, err
				}
			}
			res, t0, t1, err := c.submit(sess, s.base)
			if err != nil {
				return s, fmt.Errorf("store-backed cold submit: %w", err)
			}
			if round > 0 {
				if err := c.cl.CloseSession(sess); err != nil {
					return s, err
				}
			}
			s.cold = append(s.cold, res)
			s.coldLat = append(s.coldLat, t1.Sub(t0).Seconds())
		}
	}
	return s, nil
}

// submitSample is one warm submit as a client saw it.
type submitSample struct {
	start, end time.Time
	res        serve.Result
	traced     bool
}

func runServeDelta(cfg config) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(cfg.trace)

	// Set-up, several times; the last one's daemon serves the loop.
	var setups, opens, compiles []float64
	var s *serveSetup
	for i := 0; i < cfg.setups(); i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		s, err = newServeSetup(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.attempted += len(s.cold)
		opens = append(opens, s.openEnd.Sub(s.openStart).Seconds())
		compiles = append(compiles, s.coldLat...)
		root := tr.add("setup", -1, t0, time.Now())
		tr.add("simdb.open", root, s.openStart, s.openEnd)
	}
	defer s.close()
	cold := s.cold[0]
	for _, r := range s.cold[1:] {
		if r.RecordsDigest != cold.RecordsDigest || r.SizeAfter != cold.SizeAfter {
			out.fail("store-backed cold submits of the same corpus disagree")
		}
	}

	// The closed loop: each client edits, submits and waits, until the
	// deadline has passed and enough submits were measured.
	least, _ := cfg.submitCounts()
	samples := make([][]submitSample, serveClients)
	errs := make([]error, serveClients)
	var mu sync.Mutex
	total := 0
	deadline := time.Now().Add(cfg.seconds)
	loopStart := time.Now()
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; ; k++ {
				mu.Lock()
				more := total < least || time.Now().Before(deadline)
				total++
				mu.Unlock()
				if !more {
					return
				}
				mutate(c.m, deltaFrac, editFor(ci, k))
				b, err := wire.Encode(c.m)
				if err != nil {
					errs[ci] = err
					return
				}
				res, t0, t1, err := c.submit(c.sess, b)
				if err != nil {
					errs[ci] = err
					return
				}
				// Every other submit is traced in a traced run, for the
				// overhead comparison.
				samples[ci] = append(samples[ci], submitSample{start: t0, end: t1, res: res, traced: cfg.trace && k%2 == 0})
			}
		}()
	}
	wg.Wait()
	loopWall := time.Since(loopStart).Seconds()

	var lat, tracedLat, untracedLat, server, queue []float64
	for ci, ss := range samples {
		out.attempted += len(ss)
		if errs[ci] != nil {
			out.attempted++
			out.fail(fmt.Sprintf("client %d: %v", ci, errs[ci]))
		}
		for _, x := range ss {
			l := x.end.Sub(x.start).Seconds()
			lat = append(lat, l)
			if !x.res.Delta.Warm || x.res.Delta.Changed == 0 {
				out.fail(fmt.Sprintf("client %d: resubmit did not run as a warm delta: %+v", ci, x.res.Delta))
			}
			if !x.traced {
				untracedLat = append(untracedLat, l)
				continue
			}
			tracedLat = append(tracedLat, l)
			srv := time.Duration(x.res.WallNS)
			server = append(server, srv.Seconds())
			queue = append(queue, l-srv.Seconds())
			root := tr.add("op", -1, x.start, x.end)
			tr.add("serve.server", root, x.end.Add(-srv), x.end)
			tr.add("serve.queue", root, x.start, x.end.Add(-srv))
		}
	}

	// Output check: each client's final module, submitted to a fresh
	// session, must reproduce its last warm result.
	for ci, c := range s.clients {
		if len(samples[ci]) == 0 || errs[ci] != nil {
			continue // a failed client's module holds an unsubmitted edit
		}
		last := samples[ci][len(samples[ci])-1].res
		out.attempted++
		b, err := wire.Encode(c.m)
		if err != nil {
			out.fail(err.Error())
			continue
		}
		sess, err := c.cl.Open(nil)
		if err != nil {
			out.fail(err.Error())
			continue
		}
		res, _, _, err := c.submit(sess, b)
		switch {
		case err != nil:
			out.fail(fmt.Sprintf("client %d cold check: %v", ci, err))
		case res.RecordsDigest != last.RecordsDigest || res.SizeAfter != last.SizeAfter:
			out.fail(fmt.Sprintf("client %d: cold session of the final module diverged from the last warm result", ci))
		}
	}

	// The restarted daemon's cold result, replayed in-process: the same
	// merges, a verifier-clean module, and @main unchanged.
	d, err := checkServeCold(s.base, cold)
	if err != nil {
		out.fail(err.Error())
	}
	if d != nil {
		out.checkDeterminism(d, cfg)
		out.e2e["size_reduction_pct"] = d.SizeReductionPct
		out.e2e["runtime_overhead"] = d.RuntimeOverhead
	}

	out.e2e["setup_s"] = median(setups)
	out.e2e["compile_s"] = median(compiles)
	out.e2e["op_p50_ms"] = 1000 * median(lat)
	out.e2e["ops_per_s"] = float64(len(lat)) / loopWall

	if cfg.trace {
		// A batch run has too few operations for a 90th percentile with ten
		// samples beyond it, so the submit p90 is a serve-layer metric.
		out.layer["serve.submit_p90_ms"] = 1000 * quantile(lat, 0.9)
		out.layer["serve.server_p50_ms"] = 1000 * median(server)
		out.layer["serve.server_p90_ms"] = 1000 * quantile(server, 0.9)
		out.layer["serve.queue_p50_ms"] = 1000 * median(queue)
		out.layer["serve.queue_p90_ms"] = 1000 * quantile(queue, 0.9)
		out.layer["simdb.open_ms"] = 1000 * median(opens)
		out.layer["simdb.segment_mb"] = float64(s.segBytes) / (1 << 20)
		hits, misses := 0, 0
		for _, r := range s.cold {
			hits += r.Delta.StoreHits
			misses += r.Delta.StoreMisses
		}
		if hits+misses > 0 {
			out.layer["simdb.store_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		if err := replay(cfg, tr, out); err != nil {
			out.fail("replay: " + err.Error())
		}
		out.overhead(tracedLat, untracedLat)
	}
	out.tracer = tr
	return out, nil
}

// checkServeCold runs the base corpus through a plain in-process
// exploration with the daemon's options and checks that it commits the
// daemon's merges, and that the merged @main behaves like the unmerged one.
func checkServeCold(base []byte, cold serve.Result) (*determinism, error) {
	ref, err := wire.Decode(base, wire.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	var r reference
	if r.ret, r.weighted, err = runMain(ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	m, err := wire.Decode(base, wire.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	rep := explore.Run(m, serveOpts())
	if serve.RecordsDigest(rep.Records) != cold.RecordsDigest || rep.SizeAfter != cold.SizeAfter {
		return nil, fmt.Errorf("daemon's store-backed cold submit diverged from an in-process exploration")
	}
	w, err := checkOutput(m, r)
	if err != nil {
		return nil, err
	}
	return &determinism{
		SizeReductionPct: 100 * float64(cold.SizeBefore-cold.SizeAfter) / float64(cold.SizeBefore),
		RuntimeOverhead:  float64(w) / float64(r.weighted),
		MergeOps:         cold.MergeOps,
		OutputDigest:     fmt.Sprintf("%016x", cold.RecordsDigest),
	}, nil
}

// replay runs client 0's submit sequence through explore.Session directly,
// with a store filled and reopened as in set-up, because serve.Result
// carries no phase breakdown. Each warm submit is one traced operation.
func replay(cfg config, tr *tracer, out *outcome) error {
	m := serveCorpus(cfg.seed)
	base, err := wire.Encode(m)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.stateDir, "tmp"), "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seg := filepath.Join(dir, "corpus.fmdb")
	submitTo := func(sess *explore.Session, b []byte) (*explore.Report, explore.DeltaStats, error) {
		mod, err := wire.Decode(b, wire.Options{Workers: 1})
		if err != nil {
			return nil, explore.DeltaStats{}, err
		}
		return sess.Submit(mod)
	}
	var sess *explore.Session
	for round := 0; round < 2; round++ {
		store, err := simdb.Open(seg, m.Name, simdb.Options{})
		if err != nil {
			return err
		}
		if sess, err = explore.NewSession(explore.SessionConfig{Explore: serveOpts(), Store: store}); err != nil {
			return err
		}
		if _, _, err := submitTo(sess, base); err != nil {
			return err
		}
	}
	var counters []map[string]float64
	_, n := cfg.submitCounts()
	for k := 1; k <= n; k++ {
		mutate(m, deltaFrac, editFor(0, k))
		b, err := wire.Encode(m)
		if err != nil {
			return err
		}
		root := tr.begin("op")
		id := tr.begin("wire.decode")
		mod, err := wire.Decode(b, wire.Options{Workers: 1})
		tr.end(id)
		if err != nil {
			tr.end(root)
			return err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		id = tr.begin("explore.run")
		rep, delta, err := sess.Submit(mod)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		attachPhases(tr, id, rep.Phases)
		if rep.RankFallbacks > 0 {
			return fmt.Errorf("LSH ranking fell back to the exact scan")
		}
		c := reportCounters([]*explore.Report{rep})
		c["explore.alloc_mb"] = float64(ms.TotalAlloc-before) / (1 << 20)
		c["explore.session.changed"] = float64(delta.Changed)
		c["explore.session.neg_hits"] = float64(delta.NegHits)
		if n := delta.SeededLists + delta.RescannedLists; n > 0 {
			c["explore.session.seeded_ratio"] = float64(delta.SeededLists) / float64(n)
		}
		counters = append(counters, c)
	}
	out.addLayers(tr, counters)
	return nil
}

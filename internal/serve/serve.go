// Package serve implements the fmsa-serve daemon core: warm merge sessions
// (explore.Session) exposed over a length-prefixed frame protocol
// (wire.Frame) so repeat traffic — a build farm resubmitting a module after
// a small edit — pays delta cost instead of a cold exploration.
//
// Protocol, from the client's side:
//
//	Open    → Opened      create a session (payload: optional JSON overrides)
//	Submit  → Accepted    module admitted; Result arrives asynchronously
//	        → Busy        admission limit hit; retry after a result drains
//	        → Result      merge finished (payload: JSON serve.Result)
//	Close   → Close       session drained and torn down
//	any     → Error       malformed request, unknown session, decode failure
//
// Every request carries a client-chosen Ticket that responses echo, so one
// connection can multiplex sessions and pipeline submits. Per-session
// ordering is FIFO: a dedicated goroutine owns each explore.Session and
// processes its submits in arrival order, which is what makes warm results
// reproducible — the session sees the same submission sequence a cold
// replay would. Isolation is structural: sessions share nothing but the
// admission semaphore, so one client's corpus never warms (or poisons)
// another's caches. (The optional Config.Store is the one deliberate
// exception: a shared content-addressed similarity database, safe because
// reuse is keyed by content, never by session.)
//
// Backpressure is bounded admission, not queueing: a Submit either reserves
// one of MaxInFlight global slots before Accepted is written, or is
// answered with Busy immediately (429 semantics). The server therefore
// holds at most MaxInFlight undecoded payloads plus the sessions' warm
// state — memory is bounded no matter how fast clients push.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/simdb"
	"fmsa/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Explore is the base option set every session starts from; Open
	// payloads may override the whitelisted knobs in OpenOverrides.
	Explore explore.Options
	// MaxInFlight bounds admitted-but-unfinished submits across all
	// sessions (<= 0 selects DefaultMaxInFlight). Submits beyond it get
	// Busy responses.
	MaxInFlight int
	// MaxPayload bounds a single frame payload (<= 0 selects
	// wire.DefaultMaxFramePayload).
	MaxPayload int
	// Store is an optional persistent similarity database shared by every
	// session the server opens (explore.SessionConfig.Store): submissions
	// from any client warm it, and it survives server restarts.
	Store *simdb.Store
}

// DefaultMaxInFlight is the admission bound when Config.MaxInFlight is
// unset: enough to pipeline a few clients without letting payload bytes
// accumulate unboundedly.
const DefaultMaxInFlight = 4

// OpenOverrides is the JSON schema of an Open payload. Zero-valued fields
// keep the server's configured default; an empty payload keeps all of them.
type OpenOverrides struct {
	Threshold int    `json:"threshold,omitempty"`
	Ranking   string `json:"ranking,omitempty"` // "exact" or "lsh"
	Workers   int    `json:"workers,omitempty"`
}

// Result is the JSON payload of a Result frame: the identity-relevant slice
// of the exploration report plus the submit's delta classification. The
// records digest is an FNV-1a fold of the committed merge sequence, so two
// runs agree on it exactly when they committed identical merges in
// identical order.
type Result struct {
	MergeOps            int                `json:"merge_ops"`
	FullyRemoved        int                `json:"fully_removed"`
	CandidatesEvaluated int                `json:"candidates_evaluated"`
	SizeBefore          int                `json:"size_before"`
	SizeAfter           int                `json:"size_after"`
	RecordsDigest       uint64             `json:"records_digest"`
	Delta               explore.DeltaStats `json:"delta"`
	WallNS              int64              `json:"wall_ns"`
}

// RecordsDigest folds a committed merge sequence into one comparable
// value: names, ranks and profits in commit order.
func RecordsDigest(recs []explore.MergeRecord) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range recs {
		h.Write([]byte(r.Merged))
		h.Write([]byte{0})
		h.Write([]byte(r.F1))
		h.Write([]byte{0})
		h.Write([]byte(r.F2))
		for i, v := range []int{r.Rank, r.Profit} {
			for b := 0; b < 8; b++ {
				buf[i*8+b] = byte(uint64(v) >> (8 * b))
			}
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Server owns the listener loop, the admission semaphore and the per-
// connection session tables.
type Server struct {
	cfg Config
	sem chan struct{} // admission slots; nil until New

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	sessN    atomic.Uint64 // session id allocator (server-wide, never reused)
	inFlight sync.WaitGroup
	connWG   sync.WaitGroup
}

// New builds a Server; call Serve to start accepting.
func New(cfg Config) *Server {
	n := cfg.MaxInFlight
	if n <= 0 {
		n = DefaultMaxInFlight
	}
	return &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, n),
		conns: make(map[net.Conn]struct{}),
	}
}

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("serve: server closed")

// Serve accepts connections on ln until Shutdown. Each connection gets a
// reader goroutine; each session a worker goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown drains the server: the listener closes, new submits are refused
// with Busy, admitted work runs to completion and its results are written,
// then connections close. If ctx expires first, connections are severed
// with work possibly unfinished.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// submitJob is one unit of session-worker work. closing marks the Close
// sentinel: the worker replies and exits after the queue ahead of it drains.
type submitJob struct {
	ticket  uint64
	payload []byte
	closing bool
}

// session pairs a warm explore.Session with its FIFO worker queue. The
// queue capacity matches the admission bound, so an admitted submit never
// blocks the connection reader.
type session struct {
	id    uint64
	sess  *explore.Session
	queue chan submitJob
}

// serveConn runs one connection's read loop. All writes to the connection
// go through wmu — the reader writes Accepted/Busy/Error inline and session
// workers write Results concurrently.
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	var wmu sync.Mutex
	sessions := make(map[uint64]*session)
	var workers sync.WaitGroup
	defer func() {
		// Reader gone (EOF, protocol error, or Shutdown severed the
		// connection): drain the workers, then drop the conn. Queued jobs
		// still run — their admission slots must be released and, when the
		// peer merely half-closed, their results still delivered.
		for _, se := range sessions {
			close(se.queue)
		}
		workers.Wait()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	write := func(f wire.Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		wire.WriteFrame(c, f) // a dead peer surfaces as reader EOF; nothing to do here
	}
	fail := func(sess, ticket uint64, msg string) {
		write(wire.Frame{Kind: wire.FrameError, Session: sess, Ticket: ticket, Payload: []byte(msg)})
	}

	br := bufio.NewReaderSize(c, 1<<16)
	for {
		f, err := wire.ReadFrame(br, s.cfg.MaxPayload)
		if err != nil {
			return // EOF, oversized frame or garbage: the stream is done
		}
		switch f.Kind {
		case wire.FrameOpen:
			sess, err := s.openSession(f.Payload)
			if err != nil {
				fail(0, f.Ticket, err.Error())
				continue
			}
			id := s.sessN.Add(1)
			se := &session{id: id, sess: sess, queue: make(chan submitJob, cap(s.sem))}
			sessions[id] = se
			workers.Add(1)
			go s.sessionWorker(se, write, &workers)
			write(wire.Frame{Kind: wire.FrameOpened, Session: id, Ticket: f.Ticket})

		case wire.FrameSubmit:
			se := sessions[f.Session]
			if se == nil {
				fail(f.Session, f.Ticket, fmt.Sprintf("unknown session %d", f.Session))
				continue
			}
			if !s.admit() {
				write(wire.Frame{Kind: wire.FrameBusy, Session: f.Session, Ticket: f.Ticket})
				continue
			}
			write(wire.Frame{Kind: wire.FrameAccepted, Session: f.Session, Ticket: f.Ticket})
			se.queue <- submitJob{ticket: f.Ticket, payload: f.Payload}

		case wire.FrameClose:
			se := sessions[f.Session]
			if se == nil {
				fail(f.Session, f.Ticket, fmt.Sprintf("unknown session %d", f.Session))
				continue
			}
			delete(sessions, f.Session) // no further submits; worker drains then replies
			se.queue <- submitJob{ticket: f.Ticket, closing: true}
			close(se.queue)

		default:
			fail(f.Session, f.Ticket, fmt.Sprintf("unexpected frame kind %d from client", f.Kind))
		}
	}
}

// admit reserves an admission slot and counts the submit in flight, or
// reports false when the server is draining or the bound is hit (refuse now
// rather than queue bytes). The draining check and inFlight.Add share one
// hold of s.mu: Shutdown sets draining under the same lock before it waits,
// so every admitted submit is counted before that Wait starts and its
// result is written before the connections close.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return false
	}
	s.inFlight.Add(1)
	return true
}

// openSession builds a warm session from the server's base options plus the
// request's whitelisted overrides.
func (s *Server) openSession(payload []byte) (*explore.Session, error) {
	opts := s.cfg.Explore
	if len(payload) > 0 {
		var ov OpenOverrides
		if err := json.Unmarshal(payload, &ov); err != nil {
			return nil, fmt.Errorf("serve: bad open payload: %w", err)
		}
		if ov.Threshold > 0 {
			opts.Threshold = ov.Threshold
		}
		if ov.Ranking != "" {
			mode, err := explore.ParseRankingMode(ov.Ranking)
			if err != nil {
				return nil, err
			}
			opts.Ranking = mode
		}
		if ov.Workers > 0 {
			opts.Workers = ov.Workers
		}
	}
	return explore.NewSession(explore.SessionConfig{Explore: opts, Store: s.cfg.Store})
}

// sessionWorker owns one explore.Session: submits run strictly FIFO, each
// releasing its admission slot just before its response is written.
func (s *Server) sessionWorker(se *session, write func(wire.Frame), wg *sync.WaitGroup) {
	defer wg.Done()
	for job := range se.queue {
		if job.closing {
			write(wire.Frame{Kind: wire.FrameClose, Session: se.id, Ticket: job.ticket})
			return
		}
		s.runSubmit(se, job, write)
	}
}

// runSubmit decodes, merges and responds for one admitted submit. The
// admission slot is freed before the response goes out: a client that holds
// its response may submit again at once and must not be refused for a slot
// its own finished submit still occupies. Drain (inFlight) still waits for
// the write.
func (s *Server) runSubmit(se *session, job submitJob, writeFrame func(wire.Frame)) {
	released := false
	release := func() {
		if !released {
			released = true
			<-s.sem
		}
	}
	defer func() {
		release()
		s.inFlight.Done()
	}()
	write := func(f wire.Frame) {
		release()
		writeFrame(f)
	}
	start := time.Now()
	m, err := wire.Decode(job.payload, wire.Options{Workers: se.sess.Options().Workers})
	if err != nil {
		write(wire.Frame{Kind: wire.FrameError, Session: se.id, Ticket: job.ticket,
			Payload: []byte("decode: " + err.Error())})
		return
	}
	rep, delta, err := se.sess.Submit(m)
	if err != nil {
		write(wire.Frame{Kind: wire.FrameError, Session: se.id, Ticket: job.ticket,
			Payload: []byte("submit: " + err.Error())})
		return
	}
	res := Result{
		MergeOps:            rep.MergeOps,
		FullyRemoved:        rep.FullyRemoved,
		CandidatesEvaluated: rep.CandidatesEvaluated,
		SizeBefore:          rep.SizeBefore,
		SizeAfter:           rep.SizeAfter,
		RecordsDigest:       RecordsDigest(rep.Records),
		Delta:               delta,
		WallNS:              time.Since(start).Nanoseconds(),
	}
	payload, err := json.Marshal(&res)
	if err != nil {
		write(wire.Frame{Kind: wire.FrameError, Session: se.id, Ticket: job.ticket,
			Payload: []byte("marshal: " + err.Error())})
		return
	}
	write(wire.Frame{Kind: wire.FrameResult, Session: se.id, Ticket: job.ticket, Payload: payload})
}

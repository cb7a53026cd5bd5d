package serve

// Client is the in-process protocol client used by the serve-delta
// benchmark workload and the tests. One goroutine reads response
// frames and dispatches them to per-ticket waiters, so callers can pipeline
// submits and collect results in any order.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"fmsa/internal/wire"
)

// ErrBusy reports that the server refused a submit at its admission bound;
// retry after an outstanding result drains.
var ErrBusy = errors.New("serve: server busy")

// RemoteError is a server-reported request failure (Error frame).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "serve: remote: " + e.Msg }

// Client drives one connection to an fmsa-serve daemon.
type Client struct {
	c      net.Conn
	wmu    sync.Mutex
	ticket atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan wire.Frame
	readErr error
	done    chan struct{}
}

// Dial connects to an fmsa-serve daemon and starts the response reader.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		pending: make(map[uint64]chan wire.Frame),
		done:    make(chan struct{}),
	}
	go cl.readLoop()
	return cl, nil
}

// Close tears down the connection. Outstanding waiters fail with the read
// loop's terminal error.
func (cl *Client) Close() error {
	err := cl.c.Close()
	<-cl.done
	return err
}

// readLoop dispatches every response frame to the waiter registered under
// its ticket. A response for an unknown ticket is dropped — the only source
// is a waiter that already consumed its quota, which is a client bug, not a
// protocol state worth crashing a connection over.
func (cl *Client) readLoop() {
	defer close(cl.done)
	br := bufio.NewReaderSize(cl.c, 1<<16)
	for {
		f, err := wire.ReadFrame(br, 0)
		if err != nil {
			cl.mu.Lock()
			cl.readErr = err
			for t, ch := range cl.pending {
				close(ch)
				delete(cl.pending, t)
			}
			cl.mu.Unlock()
			return
		}
		cl.mu.Lock()
		ch := cl.pending[f.Ticket]
		cl.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// call registers a waiter, sends the request and returns the waiter
// channel. Each request gets at most two responses (Accepted then Result),
// so the channel is buffered for both and the read loop never blocks. Once
// the read loop has died nothing would answer or close the channel, so the
// call fails with its terminal error instead.
func (cl *Client) call(f wire.Frame) (uint64, chan wire.Frame, error) {
	t := cl.ticket.Add(1)
	f.Ticket = t
	ch := make(chan wire.Frame, 2)
	cl.mu.Lock()
	if err := cl.readErr; err != nil {
		cl.mu.Unlock()
		return 0, nil, err
	}
	cl.pending[t] = ch
	cl.mu.Unlock()
	cl.wmu.Lock()
	err := wire.WriteFrame(cl.c, f)
	cl.wmu.Unlock()
	if err != nil {
		cl.drop(t)
		return 0, nil, err
	}
	return t, ch, nil
}

// drop unregisters a ticket's waiter.
func (cl *Client) drop(t uint64) {
	cl.mu.Lock()
	delete(cl.pending, t)
	cl.mu.Unlock()
}

// recv waits for the next response on ch, surfacing the read loop's
// terminal error when the connection died first.
func (cl *Client) recv(ch chan wire.Frame) (wire.Frame, error) {
	f, ok := <-ch
	if !ok {
		cl.mu.Lock()
		err := cl.readErr
		cl.mu.Unlock()
		if err == nil {
			err = errors.New("serve: connection closed")
		}
		return wire.Frame{}, err
	}
	return f, nil
}

// Open creates a merge session; overrides may be nil (server defaults) or a
// JSON OpenOverrides payload.
func (cl *Client) Open(overrides *OpenOverrides) (uint64, error) {
	var payload []byte
	if overrides != nil {
		var err error
		if payload, err = json.Marshal(overrides); err != nil {
			return 0, err
		}
	}
	t, ch, err := cl.call(wire.Frame{Kind: wire.FrameOpen, Payload: payload})
	if err != nil {
		return 0, err
	}
	defer cl.drop(t)
	f, err := cl.recv(ch)
	if err != nil {
		return 0, err
	}
	switch f.Kind {
	case wire.FrameOpened:
		return f.Session, nil
	case wire.FrameError:
		return 0, &RemoteError{Msg: string(f.Payload)}
	default:
		return 0, fmt.Errorf("serve: unexpected %d response to open", f.Kind)
	}
}

// Pending tracks one in-flight submit; Wait blocks for its result.
type Pending struct {
	cl     *Client
	ticket uint64
	ch     chan wire.Frame
}

// Submit ships an fmir-encoded module into a session. It returns once the
// server admits (Accepted) or refuses (ErrBusy) the submit; the merge
// itself completes asynchronously — Wait on the returned Pending.
func (cl *Client) Submit(session uint64, module []byte) (*Pending, error) {
	t, ch, err := cl.call(wire.Frame{Kind: wire.FrameSubmit, Session: session, Payload: module})
	if err != nil {
		return nil, err
	}
	f, err := cl.recv(ch)
	if err != nil {
		cl.drop(t)
		return nil, err
	}
	switch f.Kind {
	case wire.FrameAccepted:
		return &Pending{cl: cl, ticket: t, ch: ch}, nil
	case wire.FrameBusy:
		cl.drop(t)
		return nil, ErrBusy
	case wire.FrameError:
		cl.drop(t)
		return nil, &RemoteError{Msg: string(f.Payload)}
	default:
		cl.drop(t)
		return nil, fmt.Errorf("serve: unexpected %d response to submit", f.Kind)
	}
}

// Wait blocks until the submit's Result (or Error) frame arrives.
func (p *Pending) Wait() (Result, error) {
	defer p.cl.drop(p.ticket)
	f, err := p.cl.recv(p.ch)
	if err != nil {
		return Result{}, err
	}
	switch f.Kind {
	case wire.FrameResult:
		var res Result
		if err := json.Unmarshal(f.Payload, &res); err != nil {
			return Result{}, fmt.Errorf("serve: bad result payload: %w", err)
		}
		return res, nil
	case wire.FrameError:
		return Result{}, &RemoteError{Msg: string(f.Payload)}
	default:
		return Result{}, fmt.Errorf("serve: unexpected %d response to submit", f.Kind)
	}
}

// CloseSession drains and tears down one session.
func (cl *Client) CloseSession(session uint64) error {
	t, ch, err := cl.call(wire.Frame{Kind: wire.FrameClose, Session: session})
	if err != nil {
		return err
	}
	defer cl.drop(t)
	f, err := cl.recv(ch)
	if err != nil {
		return err
	}
	switch f.Kind {
	case wire.FrameClose:
		return nil
	case wire.FrameError:
		return &RemoteError{Msg: string(f.Payload)}
	default:
		return fmt.Errorf("serve: unexpected %d response to close", f.Kind)
	}
}

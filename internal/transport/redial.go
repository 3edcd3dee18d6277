package transport

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes full-jitter exponential delays: each step draws from
// [cur/2, 3·cur/2) and doubles cur up to Max. It is the shared schedule of
// every reconnect path (cmd/worker's process restarts, the Redial
// coordinator below), so fleets restarted together spread their rejoins
// instead of stampeding the coordinator.
type Backoff struct {
	// Base is the first step (default 1s); Max caps the exponential
	// growth (default 1 minute).
	Base, Max time.Duration
	// Rng drives the jitter; nil seeds from the wall clock (two workers
	// must never share a schedule).
	Rng *rand.Rand

	cur time.Duration
}

func (b *Backoff) init() {
	if b.Base <= 0 {
		b.Base = time.Second
	}
	if b.Max <= 0 {
		b.Max = time.Minute
	}
	if b.Rng == nil {
		b.Rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	if b.cur == 0 {
		b.cur = b.Base
	}
}

// Next returns the next jittered delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	b.init()
	d := b.cur/2 + time.Duration(b.Rng.Int63n(int64(b.cur)))
	if b.cur < b.Max {
		b.cur *= 2
	}
	return d
}

// Reset rewinds the schedule to Base — call it after a success, so a
// long-lived process that survives many incidents starts each one fresh.
func (b *Backoff) Reset() { b.cur = 0 }

// Redial is a Coordinator over TCP that dials lazily and re-dials after a
// transport failure, with jittered backoff pacing between attempts. It
// exists for long-lived mid-tier processes (cmd/subfarmer): a plain Client
// is permanently dead after one connection loss, but a sub-farmer must
// survive root restarts for the lifetime of a resolution. Server-side
// errors (the coordinator rejecting a request) keep the connection;
// connection-level errors drop it, and the next call re-dials — callers
// like the SubFarmer already treat any upstream error as "lost, retry on
// the next cadence", which is exactly the pacing the backoff enforces.
// The mutex guards only client acquisition and teardown, never an
// in-flight call: the multiplexing layer shares one Redial among every
// worker on a host, so one slow WAN round-trip must not serialize the
// rest (or block Close). Concurrent callers during a re-dial wait on the
// condition variable rather than racing duplicate dials.
type Redial struct {
	mu      sync.Mutex
	cond    *sync.Cond // lazily bound to mu; signals the end of a dial
	addr    string
	opts    DialOptions
	client  *Client
	dialing bool
	closed  bool // terminal: set by Close, never cleared
	backoff Backoff
	nextTry time.Time
	lastErr error
}

// NewRedialWith returns a reconnecting coordinator for addr. No connection
// is attempted until the first call. opts.Policy gives every call a
// deadline and a retry budget (this is where Policy.Retries acts — a plain
// Client cannot retry), and opts.TLS/Token authenticate each redial.
func NewRedialWith(addr string, opts DialOptions) *Redial {
	return &Redial{addr: addr, opts: opts}
}

// do runs one exchange under the retry policy: up to 1+Retries attempts,
// paced by a fresh copy of the policy's backoff schedule. Server-side
// errors (the coordinator actively rejecting the request) are never
// retried; transport-level failures — including ErrDeadline from a
// black-holed coordinator — are, each retry forcing a fresh dial past the
// fail-fast window.
func (r *Redial) do(f func(*Client) error) error {
	attempts := 1 + r.opts.Policy.Retries
	if attempts < 1 {
		attempts = 1
	}
	bo := r.opts.Policy.Backoff
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			// Draw under the mutex: bo is a per-call copy, but a
			// caller-supplied Rng may be shared across goroutines.
			r.mu.Lock()
			d := bo.Next()
			r.mu.Unlock()
			time.Sleep(d)
		}
		err = r.call(f, a > 0)
		if err == nil || isServerError(err) {
			return err
		}
		// A terminal Close is never retried — but an ErrClosed from the
		// call itself (a sharer's deadline expiry closed the connection
		// mid-flight) is only terminal when this Redial was actually
		// Closed; otherwise the retry re-dials as usual.
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return ErrClosed
		}
	}
	return err
}

// acquire returns the live client, dialing one if needed. While the
// backoff window of a failed dial is open, it fails fast with the last
// error instead of hammering a dead address — except for retry attempts
// (force), which by definition have already paid their pacing in the
// retry loop. Exactly one goroutine dials at a time; the rest wait for
// its verdict instead of stampeding the address.
func (r *Redial) acquire(force bool) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, ErrClosed
		}
		if r.client != nil {
			return r.client, nil
		}
		if r.dialing {
			if r.cond == nil {
				r.cond = sync.NewCond(&r.mu)
			}
			r.cond.Wait()
			continue
		}
		if !force && time.Now().Before(r.nextTry) {
			return nil, r.lastErr
		}
		r.dialing = true
		r.mu.Unlock()
		c, err := DialWith(r.addr, r.opts)
		r.mu.Lock()
		r.dialing = false
		if r.cond != nil {
			r.cond.Broadcast()
		}
		if err != nil {
			r.lastErr = err
			r.nextTry = time.Now().Add(r.backoff.Next())
			return nil, err
		}
		if r.closed {
			// Close raced the dial: the fresh socket must not outlive
			// the handle that owns it — close it instead of installing
			// an orphan no caller can ever reach or tear down.
			r.mu.Unlock()
			c.Close()
			r.mu.Lock()
			return nil, ErrClosed
		}
		r.client = c
		r.backoff.Reset()
		return c, nil
	}
}

// call runs one exchange, (re)dialing as needed. The exchange itself
// runs outside the mutex: a shared Redial stays concurrent (the Client
// multiplexes in-flight calls by sequence number), and Close is never
// blocked behind a WAN round-trip.
func (r *Redial) call(f func(*Client) error, force bool) error {
	c, err := r.acquire(force)
	if err != nil {
		return err
	}
	err = f(c)
	if err == nil {
		return nil
	}
	if !isServerError(err) {
		// Transport-level failure: the client is unusable from here on.
		// Drop it — but only if a concurrent failer hasn't
		// already replaced it — and close outside the lock.
		r.mu.Lock()
		if r.client == c {
			r.client = nil
			r.lastErr = err
			r.nextTry = time.Now().Add(r.backoff.Next())
		}
		r.mu.Unlock()
		c.Close()
	}
	return err
}

// isServerError reports whether the coordinator judged the request (never
// retried, connection kept) rather than the link failing — however many
// layers have wrapped the verdict on its way up.
func isServerError(err error) bool {
	var se ServerError
	return errors.As(err, &se)
}

// RequestWork implements Coordinator. Retried per policy: a re-issued
// request is indistinguishable from a fresh one to the coordinator.
func (r *Redial) RequestWork(req WorkRequest) (reply WorkReply, err error) {
	err = r.do(func(c *Client) (e error) {
		reply, e = c.RequestWork(req)
		return e
	})
	return reply, err
}

// UpdateInterval implements Coordinator. Retried per policy: the reply is
// authoritative whether the original or the retry landed.
func (r *Redial) UpdateInterval(req UpdateRequest) (reply UpdateReply, err error) {
	err = r.do(func(c *Client) (e error) {
		reply, e = c.UpdateInterval(req)
		return e
	})
	return reply, err
}

// ReportSolution implements Coordinator. Retried per policy: SOLUTION only
// improves, so a duplicate report is absorbed as a non-improvement.
func (r *Redial) ReportSolution(req SolutionReport) (reply SolutionAck, err error) {
	err = r.do(func(c *Client) (e error) {
		reply, e = c.ReportSolution(req)
		return e
	})
	return reply, err
}

// Exchange implements BatchCoordinator, retried per policy: every leg of
// a batch is individually retry-safe (see Policy), so the whole batch is.
func (r *Redial) Exchange(req BatchRequest) (reply BatchReply, err error) {
	err = r.do(func(c *Client) (e error) {
		reply, e = c.Exchange(req)
		return e
	})
	return reply, err
}

// Close tears down the current connection, if any, and retires the Redial
// for good: every later (or concurrently waiting) call fails fast with
// ErrClosed instead of re-dialing. Terminal semantics are what make
// the connection pool's accounting sound — a closed handle that could
// quietly resurrect its socket would leak a connection the pool no longer
// counts. It swaps the client out under the lock and closes outside it, so
// a Close never waits for an in-flight call to come back. Idempotent.
func (r *Redial) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.client
	r.client = nil
	if r.cond != nil {
		// Wake dial waiters so they observe the shutdown rather than
		// sleeping until a dial that may never be attempted resolves.
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

var _ Coordinator = (*Redial)(nil)
var _ BatchCoordinator = (*Redial)(nil)

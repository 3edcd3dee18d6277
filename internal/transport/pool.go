// Shared-connection multiplexing (DESIGN.md §11): many worker sessions on
// one host ride one physical connection per coordinator address. A Client
// already multiplexes concurrent calls over its connection by sequence
// number, and Redial (whose lock covers only acquisition and teardown,
// never an in-flight call) is safe to share — so "pooling" is just
// refcounting one Redial per (address, options) pair. At the root, 10k
// workers on 500 hosts become 500 sockets instead of 10k, which is what
// makes the MaxConns cap and the per-connection auth work livable at grid
// scale.
//
// The trade-offs of sharing are deliberate and documented: one call's
// deadline expiry closes the shared connection (every in-flight sharer
// fails and the next call re-dials — the same blast radius a one-host
// network blip has anyway), and the coordinator's eviction policy sees
// one connection per host, so evicting it costs every session on that
// host. Both are the WAN-scale bargain the paper's pull model already
// makes: any lost exchange is retried by its sender.
package transport

import "sync"

// poolKey identifies a shareable connection: same address, same options.
// DialOptions is comparable (its TLS config and backoff Rng compare by
// pointer identity, which is exactly right — two legs sharing a
// connection must share the actual config, not an equivalent one).
type poolKey struct {
	addr string
	opts DialOptions
}

// pooled is one refcounted shared leg.
type pooled struct {
	r    *Redial
	key  poolKey
	refs int
}

var (
	poolMu sync.Mutex
	pool   = make(map[poolKey]*pooled)
)

// Shared is a handle on a pooled connection. It implements Coordinator
// and BatchCoordinator by delegating to the shared Redial; Close releases
// the reference, and the underlying connection closes when the last
// handle on this process does.
type Shared struct {
	p      *pooled
	closed bool
	mu     sync.Mutex
}

// DialShared returns a Coordinator backed by one shared physical
// connection per (addr, opts) pair in this process. The connection is
// dialed lazily on the first call and re-dialed after failures under
// opts.Policy, like NewRedialWith — because it IS a NewRedialWith, just
// refcounted. Always release with Close.
func DialShared(addr string, opts DialOptions) *Shared {
	if opts.MaxMessageBytes == 0 {
		opts.MaxMessageBytes = DefaultMaxMessageBytes
	}
	key := poolKey{addr: addr, opts: opts}
	poolMu.Lock()
	defer poolMu.Unlock()
	p, ok := pool[key]
	if !ok {
		p = &pooled{r: NewRedialWith(addr, opts), key: key}
		pool[key] = p
	}
	p.refs++
	return &Shared{p: p}
}

// leg returns the shared Redial, or ErrClosed once this handle has
// been Closed. The check is what keeps the pool's refcount honest: a
// closed handle already released its reference, so letting it reach the
// Redial could drive calls on — or re-dial — a connection the pool no
// longer accounts for (and, if the key was re-pooled since, a different
// handle's connection than the caller ever dialed).
func (s *Shared) leg() (*Redial, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.p.r, nil
}

// RequestWork implements Coordinator.
func (s *Shared) RequestWork(req WorkRequest) (WorkReply, error) {
	r, err := s.leg()
	if err != nil {
		return WorkReply{}, err
	}
	return r.RequestWork(req)
}

// UpdateInterval implements Coordinator.
func (s *Shared) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	r, err := s.leg()
	if err != nil {
		return UpdateReply{}, err
	}
	return r.UpdateInterval(req)
}

// ReportSolution implements Coordinator.
func (s *Shared) ReportSolution(req SolutionReport) (SolutionAck, error) {
	r, err := s.leg()
	if err != nil {
		return SolutionAck{}, err
	}
	return r.ReportSolution(req)
}

// Exchange implements BatchCoordinator.
func (s *Shared) Exchange(req BatchRequest) (BatchReply, error) {
	r, err := s.leg()
	if err != nil {
		return BatchReply{}, err
	}
	return r.Exchange(req)
}

// Close releases this handle; the shared connection closes when the last
// handle does. Idempotent per handle.
func (s *Shared) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	poolMu.Lock()
	s.p.refs--
	last := s.p.refs == 0
	if last {
		delete(pool, s.p.key)
	}
	poolMu.Unlock()
	if last {
		return s.p.r.Close()
	}
	return nil
}

var _ Coordinator = (*Shared)(nil)
var _ BatchCoordinator = (*Shared)(nil)

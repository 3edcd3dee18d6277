package transport

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interval"
)

// RPCService adapts a Coordinator to the net/rpc calling convention so a
// farmer can serve workers across machines. All methods are goroutine-safe
// if the underlying Coordinator is.
type RPCService struct {
	coord Coordinator
}

// NewRPCService wraps a coordinator.
func NewRPCService(coord Coordinator) *RPCService { return &RPCService{coord: coord} }

// RequestWork is the RPC wrapper of Coordinator.RequestWork.
func (s *RPCService) RequestWork(req *WorkRequest, reply *WorkReply) error {
	r, err := s.coord.RequestWork(*req)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// UpdateInterval is the RPC wrapper of Coordinator.UpdateInterval.
func (s *RPCService) UpdateInterval(req *UpdateRequest, reply *UpdateReply) error {
	r, err := s.coord.UpdateInterval(*req)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// ReportSolution is the RPC wrapper of Coordinator.ReportSolution.
func (s *RPCService) ReportSolution(req *SolutionReport, reply *SolutionAck) error {
	r, err := s.coord.ReportSolution(*req)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// Exchange is the RPC carrier of BatchCoordinator: the batch is executed
// server-side by the package-level Exchange, so one WAN round-trip replaces
// up to three without the Coordinator interface growing.
func (s *RPCService) Exchange(req *BatchRequest, reply *BatchReply) error {
	r, err := Exchange(s.coord, *req)
	if err != nil {
		return err
	}
	*reply = r
	return nil
}

// serviceName is the rpc-registered name of the farmer service.
const serviceName = "GridBB"

// DefaultMaxMessageBytes bounds one message on both ends of the wire.
// The protocol's messages are intervals and short paths — a few hundred
// bytes at depth-60 trees — so one mebibyte is three orders of magnitude
// of headroom while still making a gigabyte Path unsendable.
const DefaultMaxMessageBytes = 1 << 20

// ServerOptions hardens a coordinator endpoint against a hostile WAN. The
// zero value keeps the seed behaviour except for the message-size limit,
// which defaults to DefaultMaxMessageBytes (set MaxMessageBytes negative
// to disable it).
type ServerOptions struct {
	// ReadTimeout is the per-connection idle read deadline: a peer that
	// goes silent longer than this (between requests, or mid-message) has
	// its connection closed, freeing the slot and the goroutine. Zero
	// disables the deadline.
	ReadTimeout time.Duration
	// MaxConns caps simultaneous connections. When a new peer arrives at
	// the cap, the connection with the oldest traffic is evicted — slow or
	// stalled clients yield to live ones, matching the pull model's bias
	// toward whoever is actually exploring. Zero means unlimited.
	MaxConns int
	// MaxMessageBytes bounds the bytes of one inbound message. Zero means
	// DefaultMaxMessageBytes; negative disables the bound.
	MaxMessageBytes int64
	// TLS, when non-nil, wraps every connection in server-side TLS. Use
	// LoadServerTLS to build a config from PEM files, including the
	// client-certificate authentication mode.
	TLS *tls.Config
	// Token, when non-empty, requires each connection to open with a
	// matching shared token before any RPC is accepted (the lightweight
	// authentication mode; combine with TLS so the token is not sent in
	// clear).
	Token string
	// WireRef is the reference interval of the wire codec: both ends
	// delta-encode every interval against it, the client learning it at
	// connection time. The natural choice is the root interval the
	// coordinator boundary pins (gridbb wires it automatically); the zero
	// value is still correct — intervals then encode their absolute
	// bounds — just larger on the wire.
	WireRef interval.Interval
}

// ServerStats counts what the hardening layer did, mirroring the farmer's
// rejected-and-counted discipline at the connection level.
type ServerStats struct {
	// ActiveConns is the number of currently tracked connections.
	ActiveConns int
	// Evicted counts connections closed to make room under MaxConns.
	Evicted int64
	// Oversize counts connections killed for exceeding MaxMessageBytes.
	Oversize int64
	// AuthFailures counts connections that failed the TLS handshake or
	// the token exchange.
	AuthFailures int64
	// AcceptErrors counts transient listener errors survived by the
	// accept loop's backoff.
	AcceptErrors int64
}

// Server serves a Coordinator over TCP.
type Server struct {
	listener net.Listener
	rpcSrv   *rpc.Server
	opts     ServerOptions

	mu     sync.Mutex
	closed bool
	conns  map[*srvConn]struct{}

	evicted      atomic.Int64
	oversize     atomic.Int64
	authFailures atomic.Int64
	acceptErrors atomic.Int64
}

// Serve registers the coordinator and starts accepting connections on addr
// (e.g. ":4321") with default options. It returns immediately; connections
// are handled on background goroutines until Close.
func Serve(coord Coordinator, addr string) (*Server, error) {
	return ServeWith(coord, addr, ServerOptions{})
}

// ServeTLS is Serve with TLS and optional shared-token authentication.
// tlsConf typically comes from LoadServerTLS; token may be empty when the
// TLS config itself authenticates clients (client-certificate mode).
func ServeTLS(coord Coordinator, addr string, tlsConf *tls.Config, token string) (*Server, error) {
	return ServeWith(coord, addr, ServerOptions{TLS: tlsConf, Token: token})
}

// ServeWith is Serve with explicit hardening options.
func ServeWith(coord Coordinator, addr string, opts ServerOptions) (*Server, error) {
	if opts.MaxMessageBytes == 0 {
		opts.MaxMessageBytes = DefaultMaxMessageBytes
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(serviceName, NewRPCService(coord)); err != nil {
		return nil, fmt.Errorf("transport: register: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if opts.TLS != nil {
		ln = tls.NewListener(ln, opts.TLS)
	}
	s := &Server{
		listener: ln,
		rpcSrv:   srv,
		opts:     opts,
		conns:    make(map[*srvConn]struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// acceptBackoff bounds the sleep ladder on transient Accept errors.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffMax  = time.Second
)

func (s *Server) acceptLoop() {
	var delay time.Duration
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// Transient accept error (EMFILE and friends): back off
			// instead of hot-spinning — the condition that broke Accept
			// needs wall time, not retries, to clear.
			s.acceptErrors.Add(1)
			if delay == 0 {
				delay = acceptBackoffBase
			} else if delay *= 2; delay > acceptBackoffMax {
				delay = acceptBackoffMax
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		go s.serveConn(conn)
	}
}

// serveConn authenticates, registers, and serves one connection, and
// guarantees its teardown.
func (s *Server) serveConn(nc net.Conn) {
	c := &srvConn{Conn: nc, srv: s}
	c.touch()
	if !s.register(c) {
		nc.Close()
		return
	}
	defer s.unregister(c)
	defer nc.Close()
	if tc, ok := nc.(*tls.Conn); ok {
		nc.SetDeadline(time.Now().Add(authTimeout))
		if err := tc.Handshake(); err != nil {
			s.authFailures.Add(1)
			return
		}
		nc.SetDeadline(time.Time{})
	}
	if s.opts.Token != "" {
		if err := verifyToken(nc, s.opts.Token); err != nil {
			s.authFailures.Add(1)
			return
		}
	}
	c.authed.Store(true)
	// Every client opens with wirePreamble; anything else is not a peer
	// of this protocol and is dropped before it reaches the rpc layer.
	nc.SetDeadline(time.Now().Add(authTimeout))
	var pre [len(wirePreamble)]byte
	if _, err := io.ReadFull(nc, pre[:]); err != nil || pre != wirePreamble {
		return
	}
	enc := s.opts.WireRef.AppendDelta(nil, interval.Interval{})
	ack := append([]byte{wireAck}, binary.AppendUvarint(nil, uint64(len(enc)))...)
	ack = append(ack, enc...)
	if _, err := nc.Write(ack); err != nil {
		return
	}
	nc.SetDeadline(time.Time{})
	s.rpcSrv.ServeCodec(newWireServerCodec(c, s.opts.WireRef, s.opts.MaxMessageBytes))
}

// register tracks c, evicting a connection when MaxConns is reached. The
// victim is the most idle UNauthenticated connection when one exists, and
// only otherwise the most idle authenticated one: a new arrival has not
// proven anything yet, so a flood of token-less dials competes with
// itself for slots instead of evicting live workers mid-RPC (each failed
// handshake unregisters within authTimeout, recycling the slots the flood
// holds). Reports false when the server is already closed.
func (s *Server) register(c *srvConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if max := s.opts.MaxConns; max > 0 && len(s.conns) >= max {
		var victim *srvConn
		victimAuthed := true
		oldest := int64(math.MaxInt64)
		for oc := range s.conns {
			authed, la := oc.authed.Load(), oc.lastActive.Load()
			if victim != nil && (authed && !victimAuthed || authed == victimAuthed && la >= oldest) {
				continue
			}
			victim, victimAuthed, oldest = oc, authed, la
		}
		if victim != nil {
			delete(s.conns, victim)
			victim.Conn.Close()
			s.evicted.Add(1)
		}
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) unregister(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Addr returns the bound address, useful when addr was ":0".
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Stats snapshots the hardening counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		ActiveConns:  active,
		Evicted:      s.evicted.Load(),
		Oversize:     s.oversize.Load(),
		AuthFailures: s.authFailures.Load(),
		AcceptErrors: s.acceptErrors.Load(),
	}
}

// Close stops accepting connections and closes every tracked connection;
// their serving goroutines unwind on the resulting read errors.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[*srvConn]struct{})
	s.mu.Unlock()
	err := s.listener.Close()
	for _, c := range conns {
		c.Conn.Close()
	}
	return err
}

// srvConn is the server's per-connection hardening wrapper: it arms the
// idle read deadline before every Read, timestamps traffic for the
// MaxConns eviction policy, and enforces the message-size window. The
// window is the bytes read since the connection's last write — because
// net/rpc is strictly request/reply per codec, that span can cover at most
// one full inbound message (plus the start of a pipelined next one), so a
// cap of MaxMessageBytes+slack bounds every message without teaching the
// wrapper the codec's framing.
type srvConn struct {
	net.Conn
	srv        *Server
	lastActive atomic.Int64 // wall nanos of last traffic, for eviction
	window     atomic.Int64 // bytes read since the last write
	authed     atomic.Bool  // TLS + token passed; eviction spares these first
}

func (c *srvConn) touch() { c.lastActive.Store(time.Now().UnixNano()) }

func (c *srvConn) Read(p []byte) (int, error) {
	if t := c.srv.opts.ReadTimeout; t > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(t))
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.touch()
		// Allow one full message of pipelined readahead beyond the cap:
		// the wrapper cannot see frame boundaries, only byte flow.
		if max := c.srv.opts.MaxMessageBytes; max > 0 && c.window.Add(int64(n)) > 2*max {
			c.srv.oversize.Add(1)
			return 0, fmt.Errorf("transport: inbound message beyond %d bytes: %w", max, ErrOversize)
		}
	}
	return n, err
}

func (c *srvConn) Write(p []byte) (int, error) {
	c.window.Store(0)
	c.touch()
	return c.Conn.Write(p)
}

// DialOptions configures the client end of the hardened transport. The
// zero value matches the seed behaviour plus the default reply-size limit.
type DialOptions struct {
	// Policy is the per-call liveness discipline; see Policy. Timeout also
	// bounds connection establishment (dial, TLS handshake, token
	// exchange).
	Policy Policy
	// TLS, when non-nil, dials through client-side TLS. Use LoadClientTLS
	// to build a config from PEM files.
	TLS *tls.Config
	// Token, when non-empty, is presented to the server right after
	// connecting (shared-token authentication).
	Token string
	// MaxMessageBytes bounds one inbound reply. Zero means
	// DefaultMaxMessageBytes; negative disables the bound.
	MaxMessageBytes int64
	// Compact is accepted and ignored — every dial speaks the one wire
	// dialect. The field remains only because bench/, frozen for the PR
	// that removed the second dialect, still sets it.
	Compact bool
	// Share marks this client as safe to pool on one physical connection
	// per coordinator address (see DialShared): net/rpc multiplexes
	// concurrent calls by sequence number, so workers on one host don't
	// each need a socket at the root. Honored by the pooling layers
	// (gridbb, cmd/worker), not by DialWith itself.
	Share bool
}

// Client is a Coordinator implementation that forwards calls to a remote
// farmer over TCP. Calls are synchronous, matching the pull model: the
// worker blocks on its own outbound request, never the reverse — but with
// a Policy.Timeout the block is bounded, and a black-holed farmer yields
// ErrDeadline instead of a hang. A Client whose call timed out is closed
// (the reply could still arrive arbitrarily late on that connection);
// Redial layers reconnection and retries on top.
type Client struct {
	rc      *rpc.Client
	timeout time.Duration
}

// Dial connects to a farmer served by Serve.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialTLS is Dial over TLS with optional shared-token authentication,
// mirroring ServeTLS.
func DialTLS(addr string, tlsConf *tls.Config, token string) (*Client, error) {
	return DialWith(addr, DialOptions{TLS: tlsConf, Token: token})
}

// DialWith is Dial with explicit hardening options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	if opts.MaxMessageBytes == 0 {
		opts.MaxMessageBytes = DefaultMaxMessageBytes
	}
	nc, err := dialAuthedConn(addr, opts)
	if err != nil {
		return nil, err
	}
	codec, err := negotiateCompact(&cliConn{Conn: nc, max: opts.MaxMessageBytes}, opts.MaxMessageBytes)
	if err != nil {
		nc.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// A coordinator that accepts and then says nothing is the
			// black hole Policy.Timeout exists for, met one step early.
			err = ErrDeadline
		}
		return nil, fmt.Errorf("transport: negotiate with %s: %w", addr, err)
	}
	nc.SetDeadline(time.Time{})
	return &Client{rc: rpc.NewClientWithCodec(codec), timeout: opts.Policy.Timeout}, nil
}

// dialAuthedConn dials, TLS-handshakes, and token-authenticates one
// connection. The whole establishment phase runs under a deadline —
// Policy.Timeout when set, else authTimeout, mirroring the bound the
// server already puts on its half — so a black-holed coordinator can
// never hang a dialer. The deadline is still armed on return (covering
// the caller's dialect negotiation); the caller clears it.
func dialAuthedConn(addr string, opts DialOptions) (net.Conn, error) {
	timeout := opts.Policy.Timeout
	authBound := timeout
	if authBound <= 0 {
		authBound = authTimeout
	}
	var nc net.Conn
	var err error
	if timeout > 0 {
		nc, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		nc, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	nc.SetDeadline(time.Now().Add(authBound))
	if opts.TLS != nil {
		conf := opts.TLS
		if conf.ServerName == "" && !conf.InsecureSkipVerify {
			// Derive the verification name from the dialed address, as
			// tls.Dial would; the caller's config is not mutated.
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			conf = conf.Clone()
			conf.ServerName = host
		}
		tc := tls.Client(nc, conf)
		if err := tc.Handshake(); err != nil {
			nc.Close()
			return nil, fmt.Errorf("transport: tls handshake with %s: %w", addr, err)
		}
		nc = tc
	}
	if opts.Token != "" {
		if err := presentToken(nc, opts.Token); err != nil {
			nc.Close()
			return nil, fmt.Errorf("transport: authenticate to %s: %w", addr, err)
		}
	}
	return nc, nil
}

// cliConn enforces the reply-size window on the worker side, symmetric to
// srvConn: a hostile coordinator cannot feed a worker an unbounded reply.
type cliConn struct {
	net.Conn
	max    int64
	window atomic.Int64
}

func (c *cliConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.max > 0 && c.window.Add(int64(n)) > 2*c.max {
		return 0, fmt.Errorf("transport: inbound reply beyond %d bytes: %w", c.max, ErrOversize)
	}
	return n, err
}

func (c *cliConn) Write(p []byte) (int, error) {
	c.window.Store(0)
	return c.Conn.Write(p)
}

// timerPool recycles deadline timers across calls: a worker heartbeating
// every few seconds would otherwise allocate a runtime timer per call.
var timerPool sync.Pool

// invoke runs one RPC under the client's deadline. On timeout the
// connection is closed and the in-flight call drained before returning, so
// a late reply can never race a caller that has moved on and reused its
// reply value.
func (c *Client) invoke(method string, req, reply any) error {
	if c.timeout <= 0 {
		return c.rc.Call(method, req, reply)
	}
	call := c.rc.Go(method, req, reply, make(chan *rpc.Call, 1))
	timer, _ := timerPool.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(c.timeout)
	} else {
		timer.Reset(c.timeout)
	}
	select {
	case <-call.Done:
		if !timer.Stop() {
			<-timer.C
		}
		timerPool.Put(timer)
		return call.Error
	case <-timer.C:
		timerPool.Put(timer)
		c.rc.Close()
		<-call.Done
		return fmt.Errorf("transport: %s after %v: %w", method, c.timeout, ErrDeadline)
	}
}

// RequestWork implements Coordinator.
func (c *Client) RequestWork(req WorkRequest) (WorkReply, error) {
	var reply WorkReply
	err := c.invoke(serviceName+".RequestWork", &req, &reply)
	return reply, err
}

// UpdateInterval implements Coordinator.
func (c *Client) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	var reply UpdateReply
	err := c.invoke(serviceName+".UpdateInterval", &req, &reply)
	return reply, err
}

// ReportSolution implements Coordinator.
func (c *Client) ReportSolution(req SolutionReport) (SolutionAck, error) {
	var reply SolutionAck
	err := c.invoke(serviceName+".ReportSolution", &req, &reply)
	return reply, err
}

// Exchange implements BatchCoordinator.
func (c *Client) Exchange(req BatchRequest) (BatchReply, error) {
	var reply BatchReply
	err := c.invoke(serviceName+".Exchange", &req, &reply)
	return reply, err
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rc.Close() }

var _ Coordinator = (*Client)(nil)
var _ BatchCoordinator = (*Client)(nil)

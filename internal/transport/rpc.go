// The TCP carrier (DESIGN.md §§10, 11): a Server that answers wire frames
// straight from a Coordinator and a Client that multiplexes calls over one
// connection. Both ends are a loop over readWireFrame and a write lock;
// wire.go holds the bytes they move.
package transport

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interval"
)

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
	// goes silent longer than this (before its token or wire preamble,
	// between requests, or mid-message) has its connection closed,
	// freeing the slot and the goroutine. Zero disables the deadline; the
	// opening reads then stay bounded by the authentication deadline.
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
	// matching shared token before any call is accepted (the lightweight
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
	coord    Coordinator
	opts     ServerOptions

	mu     sync.Mutex
	closed bool
	conns  map[*srvConn]struct{}

	evicted      atomic.Int64
	oversize     atomic.Int64
	authFailures atomic.Int64
	acceptErrors atomic.Int64
}

// ServeWith starts answering the coordinator's protocol on addr
// (e.g. ":4321") under opts (a zero value serves plain TCP with default
// limits). It returns immediately; connections are handled on background
// goroutines until Close.
func ServeWith(coord Coordinator, addr string, opts ServerOptions) (*Server, error) {
	if opts.MaxMessageBytes == 0 {
		opts.MaxMessageBytes = DefaultMaxMessageBytes
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
		coord:    coord,
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
	// The opening reads answer to ReadTimeout when it is the tighter
	// bound: a peer that connects and says nothing is a silent peer.
	opening := authTimeout
	if t := s.opts.ReadTimeout; t > 0 && t < opening {
		opening = t
	}
	if s.opts.Token != "" {
		if err := verifyToken(nc, s.opts.Token, opening); err != nil {
			s.authFailures.Add(1)
			return
		}
	}
	c.authed.Store(true)
	// Every client opens with wirePreamble; anything else is not a peer
	// of this protocol and is dropped before a frame of it is read.
	nc.SetDeadline(time.Now().Add(opening))
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
	c.serveFrames()
}

// maxInflight bounds the requests one connection may have running at once;
// past it the read loop stops reading and TCP pushes back on the peer. A
// closed-loop session has one call in flight, so this is the number of
// sessions one shared connection serves without queueing.
const maxInflight = 256

// serveFrames is the server's frame loop: read a frame, hand it to a
// handler goroutine, read the next. Requests on one connection are served
// overlapped, not in turn: a pooled host's sessions share the socket, and
// a coordinator may legitimately hold one call for a long time (a
// sub-farmer's upstream round-trip), which must not park the others.
// Handlers are started on demand — one more whenever a frame finds none
// idle — and then stay with the connection, so its steady state starts no
// goroutine and grows no stack per request.
func (c *srvConn) serveFrames() {
	br := bufio.NewReader(c)
	work := make(chan []byte) // unbuffered: a send lands only in an idle handler
	var handlers sync.WaitGroup
	// The requests still running get to answer (or fail on the dead
	// socket) before the connection is closed and its slot released.
	defer handlers.Wait()
	defer close(work)
	started := 0
	for {
		frame, err := readWireFrame(br, c.srv.opts.MaxMessageBytes, nil)
		if err != nil {
			return
		}
		select {
		case work <- frame:
			continue
		default:
		}
		if started == maxInflight {
			work <- frame
			continue
		}
		started++
		handlers.Add(1)
		go c.handle(frame, work, &handlers)
	}
}

// handle answers first, then whatever frames the read loop hands over,
// until the connection ends.
func (c *srvConn) handle(first []byte, work <-chan []byte, done *sync.WaitGroup) {
	defer done.Done()
	for frame, ok := first, true; ok; frame, ok = <-work {
		c.answer(frame)
	}
}

// answer serves one request frame and writes its reply frame.
func (c *srvConn) answer(frame []byte) {
	ref := c.srv.opts.WireRef
	a, ok := dispatchWireFrame(c.srv.coord, ref, frame)
	if !ok {
		// No sequence number to answer under: the peer is not speaking
		// the dialect, and the read loop ends with the connection.
		c.Conn.Close()
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = a.appendFrame(c.wbuf, ref)
	// A failed write needs no handling here: the read loop meets the
	// same dead socket and tears the connection down.
	_, _ = c.Write(endWireFrame(c.wbuf))
}

// wireAnswer is the outcome of one served request, ready to be encoded.
type wireAnswer struct {
	method byte   // echoed method id; zero for an id this server does not know
	seq    uint64 // echoed sequence number
	reply  any    // the typed reply (*WorkReply, ...) when err is nil
	elide  []byte // an UpdateRequest's encoded Remaining, aliasing the frame
	err    error  // answered as an error frame; the connection survives it
}

// dispatchWireFrame is everything the server does with an inbound frame
// short of writing the answer: header, typed body decode, the coordinator
// call. ok is false only when the header itself is unreadable. A body that
// does not decode and a method id no version of this server defines are
// both answered with an error frame.
func dispatchWireFrame(coord Coordinator, ref interval.Interval, frame []byte) (a wireAnswer, ok bool) {
	r := wireReader{data: frame}
	a.method, a.seq = r.byte(), r.uvarint()
	if r.err != nil {
		return a, false
	}
	switch a.method {
	case wireRequestWork:
		a.reply, _, a.err = serveWireCall(&r, ref, coord.RequestWork)
	case wireUpdateInterval:
		a.reply, a.elide, a.err = serveWireCall(&r, ref, coord.UpdateInterval)
	case wireReportSolution:
		a.reply, _, a.err = serveWireCall(&r, ref, coord.ReportSolution)
	case wireExchange:
		a.reply, _, a.err = serveWireCall(&r, ref, func(req BatchRequest) (BatchReply, error) {
			return Exchange(coord, req)
		})
	default:
		a.err = fmt.Errorf("transport: unknown method id %#x", a.method)
		a.method = 0
	}
	return a, true
}

// serveWireCall decodes the request body left in r and runs call on it.
func serveWireCall[Q, P any](r *wireReader, ref interval.Interval, call func(Q) (P, error)) (any, []byte, error) {
	var req Q
	seg := decodeWireRequestBody(r, ref, &req)
	if r.err != nil {
		return nil, nil, r.err
	}
	reply, err := call(req)
	return &reply, seg, err
}

// appendFrame encodes the answer as a reply frame into buf (reused from its
// start; see beginWireFrame).
func (a *wireAnswer) appendFrame(buf []byte, ref interval.Interval) []byte {
	buf = beginWireFrame(buf, a.method, a.seq)
	if a.err != nil {
		return appendWireStr(append(buf, wireFlagError), a.err.Error())
	}
	// The encoder only refuses a type that is not a reply, and
	// dispatchWireFrame sets nothing else.
	buf, _ = appendWireReplyBody(append(buf, 0), ref, a.reply, a.elide)
	return buf
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

// srvConn is one served connection: the hardening wrapper under the frame
// loop — it arms the idle read deadline before every Read, timestamps
// traffic for the MaxConns eviction policy, and enforces the message-size
// window — and the write lock the overlapped answers share. The window is
// the bytes read since the connection's last write: a peer that waits for
// its replies can put at most one message (plus the start of the next) in
// that span, so a cap of MaxMessageBytes+slack bounds every message
// without teaching the wrapper the framing, and a shared connection's
// concurrent calls are three orders of magnitude below it.
type srvConn struct {
	net.Conn
	srv        *Server
	lastActive atomic.Int64 // wall nanos of last traffic, for eviction
	window     atomic.Int64 // bytes read since the last write
	authed     atomic.Bool  // TLS + token passed; eviction spares these first

	wmu  sync.Mutex // one reply frame on the socket at a time
	wbuf []byte     // the frame being written, reused under wmu
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
	// per coordinator address (see DialShared): a Client multiplexes
	// concurrent calls by sequence number, so workers on one host don't
	// each need a socket at the root. Honored by the pooling layers
	// (gridbb, cmd/worker), not by DialWith itself.
	Share bool
}

// Client is a Coordinator implementation that forwards calls to a remote
// farmer over TCP. Calls are synchronous, matching the pull model: the
// worker blocks on its own outbound request, never the reverse — but with
// a Policy.Timeout the block is bounded, and a black-holed farmer yields
// ErrDeadline instead of a hang. Any number of goroutines may call at
// once: requests are numbered, a table holds the calls awaiting a reply,
// and one reader goroutine per connection hands each reply frame to its
// caller. A Client whose call timed out is closed (the reply could still
// arrive arbitrarily late on that connection), failing every call in
// flight on it; Redial layers reconnection and retries on top.
type Client struct {
	conn    net.Conn // the cliConn: the reply-size window over the socket
	ref     interval.Interval
	timeout time.Duration

	wmu  sync.Mutex // one request frame on the socket at a time
	seq  uint64     // last sequence number issued, under wmu
	wbuf []byte     // the frame being written, reused under wmu

	// mu guards the pending table and every write into a caller's reply
	// value: the reader decodes under it, and a caller that gives up
	// removes its entry under it, so a late reply finds nothing to fill.
	mu      sync.Mutex
	pending map[uint64]*pendingCall
	err     error // why the connection was given up; set once, then no call starts
}

// pendingCall is one call awaiting its reply. done receives exactly one
// verdict, from whoever takes the entry out of the table other than the
// caller itself — the reader, or shutdown — which is what makes the value
// safe to recycle once the caller has it back.
type pendingCall struct {
	reply any        // the caller's typed reply value
	seg   []byte     // an UpdateRequest's encoded Remaining, for an elided reply
	done  chan error // 1-buffered
}

var pendingPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan error, 1)} }}

// DialWith connects to a farmer served by ServeWith under opts (a zero
// value is a plain dial with default limits).
func DialWith(addr string, opts DialOptions) (*Client, error) {
	if opts.MaxMessageBytes == 0 {
		opts.MaxMessageBytes = DefaultMaxMessageBytes
	}
	nc, err := dialAuthedConn(addr, opts)
	if err != nil {
		return nil, err
	}
	cc := &cliConn{Conn: nc, max: opts.MaxMessageBytes}
	br, ref, err := negotiateWire(cc)
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
	c := &Client{conn: cc, ref: ref, timeout: opts.Policy.Timeout, pending: make(map[uint64]*pendingCall)}
	go c.readLoop(br, opts.MaxMessageBytes)
	return c, nil
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

// readLoop is the connection's one reader: it hands reply frames to their
// callers until the socket fails or is closed, then fails whoever is left.
func (c *Client) readLoop(br *bufio.Reader, max int64) {
	var frame []byte
	var err error
	for err == nil {
		if frame, err = readWireFrame(br, max, frame); err == nil {
			err = c.deliver(frame)
		}
	}
	c.shutdown(fmt.Errorf("transport: connection lost: %w", err))
}

// deliver completes the call a reply frame answers. A frame nobody waits
// for — its caller timed out — is dropped; only an unreadable header is an
// error, and a fatal one: the stream cannot be trusted past it.
func (c *Client) deliver(frame []byte) error {
	r := wireReader{data: frame}
	r.byte() // the method id echo: the pending entry already knows the reply type
	seq, flags := r.uvarint(), r.byte()
	if r.err != nil {
		return r.err
	}
	c.mu.Lock()
	call := c.pending[seq]
	delete(c.pending, seq)
	if call == nil {
		c.mu.Unlock()
		return nil
	}
	var verdict error
	if flags&wireFlagError != 0 {
		if msg := r.str(); r.err != nil {
			verdict = r.err
		} else if msg == "" {
			verdict = ServerError("wire: unnamed server error")
		} else {
			verdict = ServerError(msg)
		}
	} else if decodeWireReplyBody(&r, c.ref, call.reply, call.seg); r.err != nil {
		verdict = fmt.Errorf("transport: reading reply: %w", r.err)
	}
	c.mu.Unlock()
	call.done <- verdict
	return nil
}

// shutdown gives the connection up, once: the first cause stands, the
// socket is closed — which ends the reader — and every call still pending
// is failed with that cause. Later calls are no-ops.
func (c *Client) shutdown(cause error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = cause
	orphans := c.pending
	c.pending = nil
	c.mu.Unlock()
	err := c.conn.Close()
	for _, call := range orphans {
		call.done <- cause
	}
	return err
}

// invoke runs one call under the client's deadline. On timeout the entry
// leaves the pending table before the caller returns, so a late reply can
// never reach a reply value its caller has moved on from and reused — and
// the connection is closed, since it can no longer be trusted to be live.
func (c *Client) invoke(method byte, req, reply any) error {
	call := pendingPool.Get().(*pendingCall)
	call.reply = reply
	defer func() {
		call.reply = nil
		pendingPool.Put(call)
	}()

	c.wmu.Lock()
	c.seq++
	seq := c.seq
	// The encoder only refuses a type that is not a request, and the four
	// typed methods below pass nothing else.
	buf, seg, _ := appendWireRequestBody(beginWireFrame(c.wbuf, method, seq), c.ref, req)
	c.wbuf = buf
	call.seg = append(call.seg[:0], seg...)
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		return err
	}
	c.pending[seq] = call
	c.mu.Unlock()
	_, err := c.conn.Write(endWireFrame(buf))
	c.wmu.Unlock()
	if err != nil {
		// Fails this call along with the rest: the verdict arrives on done.
		c.shutdown(fmt.Errorf("transport: send: %w", err))
	}

	if c.timeout <= 0 {
		return <-call.done
	}
	timer, _ := timerPool.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(c.timeout)
	} else {
		timer.Reset(c.timeout)
	}
	select {
	case err := <-call.done:
		if !timer.Stop() {
			<-timer.C
		}
		timerPool.Put(timer)
		return err
	case <-timer.C:
		timerPool.Put(timer)
		c.mu.Lock()
		_, waiting := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if !waiting {
			// Answered (or failed) in the same instant: that verdict stands.
			return <-call.done
		}
		c.shutdown(ErrClosed)
		return fmt.Errorf("transport: no reply within %v: %w", c.timeout, ErrDeadline)
	}
}

// RequestWork implements Coordinator.
func (c *Client) RequestWork(req WorkRequest) (WorkReply, error) {
	var reply WorkReply
	err := c.invoke(wireRequestWork, &req, &reply)
	return reply, err
}

// UpdateInterval implements Coordinator.
func (c *Client) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	var reply UpdateReply
	err := c.invoke(wireUpdateInterval, &req, &reply)
	return reply, err
}

// ReportSolution implements Coordinator.
func (c *Client) ReportSolution(req SolutionReport) (SolutionAck, error) {
	var reply SolutionAck
	err := c.invoke(wireReportSolution, &req, &reply)
	return reply, err
}

// Exchange implements BatchCoordinator.
func (c *Client) Exchange(req BatchRequest) (BatchReply, error) {
	var reply BatchReply
	err := c.invoke(wireExchange, &req, &reply)
	return reply, err
}

// Close tears down the connection; calls in flight fail with ErrClosed.
func (c *Client) Close() error { return c.shutdown(ErrClosed) }

var _ Coordinator = (*Client)(nil)
var _ BatchCoordinator = (*Client)(nil)

package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/transport"
)

// countingProxy is a loopback TCP relay that tallies every byte in both
// directions, so the wire is priced in bytes on the socket rather than
// inferred from codec buffer sizes. It only sits in the path of the traced
// pass's wire probes: end-to-end numbers are taken without the extra hop.
type countingProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) Addr() string { return p.ln.Addr().String() }

// Total is the bytes relayed so far, both directions.
func (p *countingProxy) Total() int64 { return p.bytes.Load() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		p.conns = append(p.conns, c, s)
		p.wg.Add(2)
		p.mu.Unlock()
		go p.relay(s, c)
		go p.relay(c, s)
	}
}

// relay copies src to dst, counting; when either side ends it closes both,
// which ends the opposite relay too.
func (p *countingProxy) relay(dst, src net.Conn) {
	defer p.wg.Done()
	defer dst.Close()
	defer src.Close()
	_, _ = io.Copy(countingWriter{dst, &p.bytes}, src) // ends on close; nothing to report
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

// Write counts before it relays: a caller that has seen a reply arrive must
// find its bytes already in the total.
func (c countingWriter) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return c.w.Write(b)
}

// Close stops accepting, closes every relayed connection and waits for the
// relay goroutines to end.
func (p *countingProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// teardown is a stack of release functions, run in reverse order.
type teardown []func()

func (t *teardown) add(f func()) { *t = append(*t, f) }

func (t teardown) close() {
	for i := len(t) - 1; i >= 0; i-- {
		t[i]()
	}
}

func workerID(w int) string { return fmt.Sprintf("w%d", w) }

// connect gives each of the loadWorkers workers its way to coord: a direct
// call, or (tcp) its own compact connection to a loopback listener serving
// coord with ref as the wire reference, through a counting proxy when
// viaProxy. With tr the span decorators go on both sides of every call.
// Everything opened is pushed on td, also when connect fails half-way.
func connect(coord transport.Coordinator, ref interval.Interval, tcp, viaProxy bool, tr *tracer, td *teardown) ([]transport.Coordinator, *countingProxy, error) {
	if tr != nil {
		coord = &serverCoord{inner: coord, tr: tr}
	}
	var proxy *countingProxy
	addr := ""
	if tcp {
		srv, err := transport.ServeWith(coord, "127.0.0.1:0", transport.ServerOptions{WireRef: ref})
		if err != nil {
			return nil, nil, err
		}
		td.add(func() { srv.Close() })
		addr = srv.Addr()
		if viaProxy {
			if proxy, err = newCountingProxy(addr); err != nil {
				return nil, nil, err
			}
			td.add(proxy.Close)
			addr = proxy.Addr()
		}
	}
	coords := make([]transport.Coordinator, loadWorkers)
	for w := range coords {
		coords[w] = coord
		if tcp {
			cli, err := transport.DialWith(addr, transport.DialOptions{Compact: true})
			if err != nil {
				return nil, nil, err
			}
			td.add(func() { cli.Close() })
			coords[w] = cli
		}
		if tr != nil {
			coords[w] = &clientCoord{inner: coords[w], tr: tr, actor: workerID(w)}
		}
	}
	return coords, proxy, nil
}

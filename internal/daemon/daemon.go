// Package daemon is the skeleton the long-running commands share
// (cmd/farmer, cmd/subfarmer, cmd/jobd, cmd/worker): the hardening flags of
// a listening or a dialing leg and the transport options they build, the
// cadence flags, and Run — a coordinator's tickers and its one stop path,
// which ends every run, finished or signalled, with a final checkpoint
// (DESIGN.md §10).
package daemon

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bb"
	"repro/internal/interval"
	"repro/internal/transport"
)

// ServeFlags is the command line of a coordinator's worker listener:
// -addr and the hostile-WAN hardening of DESIGN.md §10.
type ServeFlags struct {
	addr                       string
	readTimeout, maxConns      int
	maxMsg                     int64
	cert, key, clientCA, token string
}

// Serve registers the listener flags on fs. addr and addrUsage are the
// -addr default and usage text.
func Serve(fs *flag.FlagSet, addr, addrUsage string) *ServeFlags {
	s := &ServeFlags{}
	fs.StringVar(&s.addr, "addr", addr, addrUsage)
	fs.IntVar(&s.readTimeout, "read-timeout", 300, "seconds a connection may stay silent before eviction (0: no deadline)")
	fs.IntVar(&s.maxConns, "max-conns", 0, "max simultaneous connections, evicting the most idle at the cap (0: unlimited)")
	fs.Int64Var(&s.maxMsg, "max-msg-bytes", transport.DefaultMaxMessageBytes, "per-message byte limit (negative: unlimited)")
	fs.StringVar(&s.cert, "tls-cert", "", "server certificate PEM (with -tls-key enables TLS)")
	fs.StringVar(&s.key, "tls-key", "", "server key PEM")
	fs.StringVar(&s.clientCA, "tls-client-ca", "", "require client certificates signed by this CA (certificate auth mode)")
	fs.StringVar(&s.token, "auth-token", "", "shared token workers must present (token auth mode)")
	return s
}

// Listen serves coord on -addr under the listener's options, loading the
// TLS material when -tls-cert or -tls-key is set. wireRef is the wire
// codec's reference interval; the zero interval sends intervals absolute.
func (s *ServeFlags) Listen(coord transport.Coordinator, wireRef interval.Interval) (*transport.Server, error) {
	so := transport.ServerOptions{ReadTimeout: seconds(s.readTimeout), MaxConns: s.maxConns, MaxMessageBytes: s.maxMsg, Token: s.token, WireRef: wireRef}
	if s.cert != "" || s.key != "" {
		var err error
		if so.TLS, err = transport.LoadServerTLS(s.cert, s.key, s.clientCA); err != nil {
			return nil, err
		}
	}
	return transport.ServeWith(coord, s.addr, so)
}

// DialFlags is the command line of a leg that dials a coordinator: the
// per-call deadline and the peer's identity check and credentials.
type DialFlags struct {
	timeout                          int
	ca, cert, key, serverName, token string
}

// Dial registers the dialing flags on fs: -call-timeout, and the TLS and
// token flags named with prefix (the sub-farmer's upstream leg is
// "root-").
func Dial(fs *flag.FlagSet, prefix string) *DialFlags {
	d := &DialFlags{}
	fs.IntVar(&d.timeout, "call-timeout", 30, "seconds one protocol call may take before ErrDeadline (0: no deadline)")
	fs.StringVar(&d.ca, prefix+"tls-ca", "", "CA to verify the farmer against (enables TLS)")
	fs.StringVar(&d.cert, prefix+"tls-cert", "", "client certificate PEM (certificate auth mode)")
	fs.StringVar(&d.key, prefix+"tls-key", "", "client key PEM")
	fs.StringVar(&d.serverName, prefix+"tls-server-name", "", "expected server name when it differs from -addr's host")
	fs.StringVar(&d.token, prefix+"auth-token", "", "shared token to present to the farmer (token auth mode)")
	return d
}

// Options builds the dial options: the call deadline, the token and, when
// a CA, certificate or key is named, the client TLS config.
func (d *DialFlags) Options() (do transport.DialOptions, err error) {
	do = transport.DialOptions{Policy: transport.Policy{Timeout: seconds(d.timeout)}, Token: d.token}
	if d.ca != "" || d.cert != "" || d.key != "" {
		do.TLS, err = transport.LoadClientTLS(d.ca, d.cert, d.key, d.serverName)
	}
	return do, err
}

// A Period is a cadence flag in whole seconds.
type Period struct {
	name string
	secs int
}

// NewPeriod registers the cadence flag name on fs.
func NewPeriod(fs *flag.FlagSet, name string, def int, usage string) *Period {
	p := &Period{name: name}
	fs.IntVar(&p.secs, name, def, usage)
	return p
}

// Duration is the period, once fs is parsed.
func (p *Period) Duration() time.Duration { return seconds(p.secs) }

// Parse parses the command line into fs, an ExitOnError set such as
// flag.CommandLine, and refuses a period that is not positive (no ticker
// runs at it) the way fs refuses a malformed value: a line naming the
// flag, the usage text, exit status 2.
func Parse(fs *flag.FlagSet, periods ...*Period) {
	fs.Parse(os.Args[1:]) // an ExitOnError set exits on its own errors
	for _, p := range periods {
		if p.secs <= 0 {
			fmt.Fprintf(fs.Output(), "invalid value %d for flag -%s: must be positive\n", p.secs, p.name)
			fs.Usage()
			os.Exit(2)
		}
	}
}

func seconds(n int) time.Duration { return time.Duration(n) * time.Second }

// Identity is name, or else prefix+host-pid: unique per process.
func Identity(name, prefix string) string {
	if name != "" {
		return name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s%s-%d", prefix, host, os.Getpid())
}

// Cost formats an objective value for a log line: "inf" while nothing is
// known (bb.Infinity).
func Cost(c int64) string {
	if c == bb.Infinity {
		return "inf"
	}
	return fmt.Sprint(c)
}

// SignalContext is ctx, cancelled by the first SIGINT or SIGTERM.
func SignalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
}

// Loop is a coordinator daemon's periodic work.
type Loop struct {
	// Checkpoint snapshots the coordinator every CheckpointEvery and once
	// more on the stop path.
	Checkpoint      func() error
	CheckpointEvery time.Duration
	// Status logs a status line every StatusEvery and reports whether the
	// resolution is over.
	Status      func() (done bool)
	StatusEvery time.Duration
	// Tick, if set, runs every TickEvery and once more on the stop path,
	// before the final checkpoint (the sub-farmer's upstream fold).
	Tick      func()
	TickEvery time.Duration
}

// Run drives l until Status reports the resolution over, ctx ends or the
// process receives SIGINT or SIGTERM. Every way out takes the same stop
// path: a last Tick, then a final Checkpoint; the caller closes its
// servers after Run returns. Run reports whether the resolution is over,
// and fails only when the final checkpoint does — a failed periodic one
// is logged and retried at the next period.
func Run(ctx context.Context, l Loop) (done bool, err error) {
	ctx, stop := SignalContext(ctx)
	defer stop()
	ckpt := time.NewTicker(l.CheckpointEvery)
	defer ckpt.Stop()
	status := time.NewTicker(l.StatusEvery)
	defer status.Stop()
	var tick <-chan time.Time // nil without a Tick: never ready
	if l.Tick != nil {
		t := time.NewTicker(l.TickEvery)
		defer t.Stop()
		tick = t.C
	}
	for !done && ctx.Err() == nil {
		select {
		case <-ctx.Done():
			log.Print("stopping: final checkpoint")
		case <-tick:
			l.Tick()
		case <-ckpt.C:
			if err := l.Checkpoint(); err != nil {
				log.Printf("checkpoint failed: %v", err)
			}
		case <-status.C:
			done = l.Status()
		}
	}
	if l.Tick != nil {
		l.Tick()
	}
	if err := l.Checkpoint(); err != nil {
		return done, fmt.Errorf("final checkpoint failed: %w", err)
	}
	return done, nil
}

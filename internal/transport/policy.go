package transport

import (
	"errors"
	"time"
)

// ErrDeadline is returned when a protocol call exceeds its Policy.Timeout.
// It is a transport-level verdict, not a protocol one: the coordinator may
// or may not have processed the message (a black-holed link loses either
// the request or the reply), which is exactly the ambiguity the pull-model
// protocol is built to tolerate — RequestWork and UpdateInterval re-issue
// naturally, and a retried ReportSolution is absorbed by the coordinator's
// monotone-best rule. Callers therefore treat ErrDeadline like ErrLost:
// retry on their own cadence, or through Policy.Retries.
var ErrDeadline = errors.New("transport: call deadline exceeded")

// ErrOversize is returned (and poisons the connection) when a peer ships a
// message larger than the configured byte limit. A hostile peer can encode
// megabyte bignum intervals or gigabyte paths in a few protocol fields;
// the size window kills the connection long before the decoder
// materializes them.
var ErrOversize = errors.New("transport: message exceeds size limit")

// ErrClosed is returned by a call on a handle that has been closed — a
// Client, Redial or Shared after its Close, or a Client whose connection a
// sharer's deadline expiry took down mid-flight. On a Redial or Shared it
// is terminal: a closed handle never dials again.
var ErrClosed = errors.New("transport: connection is shut down")

// ServerError is an error the coordinator returned for a request, carried
// back over the wire as text. It is a verdict on the request, not on the
// link: the connection stays up and the call is never retried. Match it
// with errors.As.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// Policy is the liveness discipline of one client leg: how long a single
// protocol call may take, and how failures are retried. The zero value is
// the seed behaviour — no deadline, no retries — so existing callers are
// unchanged until they opt in.
//
// All three protocol operations are idempotent-safe to retry: RequestWork
// and UpdateInterval re-issue naturally (the coordinator's reply is
// authoritative either way), and ReportSolution retries are harmless
// because SOLUTION only ever improves (a duplicate report of a cost the
// coordinator already has is simply not an improvement). Server-side
// errors — the coordinator actively rejecting a request — are never
// retried: the request is wrong, not lost.
type Policy struct {
	// Timeout bounds one call end to end, connection establishment
	// included: a black-holed coordinator returns ErrDeadline instead of
	// pinning the caller forever. Zero disables the deadline.
	Timeout time.Duration
	// Retries is how many extra attempts a Redial client makes after a
	// transport-level failure before surfacing the error. A plain Client
	// cannot retry — its connection is dead after one failure — so the
	// field only acts through Redial.
	Retries int
	// Backoff paces the retry attempts (full-jitter exponential, the
	// shared schedule of every reconnect path). The zero value uses the
	// Backoff defaults (1s base, 1min cap).
	Backoff Backoff
}

package transport

import "time"

// SetAuthTimeout overrides the shared authentication/negotiation deadline
// so tests can prove the bound fires without waiting ten seconds. It
// returns the previous value for restoration.
func SetAuthTimeout(d time.Duration) time.Duration {
	old := authTimeout
	authTimeout = d
	return old
}

// DoForTest runs f under the Redial's retry policy, as the four protocol
// methods do, so a test can put its own wrapping between the Client and
// the retry decision.
func (r *Redial) DoForTest(f func(*Client) error) error { return r.do(f) }

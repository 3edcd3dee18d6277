// Worker authentication for the hardened transport. Two modes, matching
// what a real grid deployment can provision:
//
//   - shared token: every worker presents one secret right after
//     connecting, before any RPC — cheap to distribute, revoked by
//     restarting the farmer with a new token. Combine with TLS so the
//     token never crosses the WAN in clear.
//   - client certificates: LoadServerTLS with a client CA makes the TLS
//     handshake itself the authentication; no token needed.
//
// The token exchange is a fixed-frame preamble (magic, length, token; one
// ACK byte back) rather than a text line, so the server never reads past
// the frame into the wire preamble that follows.
package transport

import (
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// authTimeout bounds the whole connection preamble (TLS handshake, token
// exchange, dialect negotiation) on both sides: the server cannot have
// its accept slots pinned by half-open handshakes, and a dialer cannot be
// hung forever by a black-holed coordinator. A variable, not a const, so
// tests can shrink it.
var authTimeout = 10 * time.Second

// maxTokenBytes bounds the token frame; anything longer is hostile.
const maxTokenBytes = 512

// ErrAuth is returned when the token exchange fails — wrong token, or a
// peer that is not speaking the preamble at all.
var ErrAuth = errors.New("transport: authentication failed")

// tokenMagic opens the preamble frame; the version byte lets the framing
// evolve.
var tokenMagic = [3]byte{'G', 'B', 1}

// presentToken writes the client side of the token preamble and waits for
// the server's ACK. The caller has already armed a deadline if it wants
// one.
func presentToken(conn net.Conn, token string) error {
	if len(token) > maxTokenBytes {
		return fmt.Errorf("%w: token longer than %d bytes", ErrAuth, maxTokenBytes)
	}
	frame := make([]byte, 0, len(tokenMagic)+2+len(token))
	frame = append(frame, tokenMagic[:]...)
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(token)))
	frame = append(frame, token...)
	if _, err := conn.Write(frame); err != nil {
		return err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("%w: server closed during token exchange", ErrAuth)
	}
	if ack[0] != 0x06 {
		return ErrAuth
	}
	return nil
}

// verifyToken reads and checks the client's token preamble within
// timeout, replying with one ACK byte on success. The comparison is
// constant-time; the failure path stays silent (close, no oracle).
func verifyToken(conn net.Conn, token string, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	var header [5]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		return fmt.Errorf("%w: no token preamble", ErrAuth)
	}
	if [3]byte(header[:3]) != tokenMagic {
		return fmt.Errorf("%w: peer did not present a token", ErrAuth)
	}
	n := int(binary.BigEndian.Uint16(header[3:5]))
	if n > maxTokenBytes {
		return fmt.Errorf("%w: token frame of %d bytes", ErrAuth, n)
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(conn, got); err != nil {
		return fmt.Errorf("%w: truncated token", ErrAuth)
	}
	if subtle.ConstantTimeCompare(got, []byte(token)) != 1 {
		return fmt.Errorf("%w: wrong token", ErrAuth)
	}
	if _, err := conn.Write([]byte{0x06}); err != nil {
		return err
	}
	return nil
}

// LoadServerTLS builds a coordinator-side TLS config from PEM files: the
// server's certificate and key, plus — when clientCAFile is non-empty —
// mandatory client-certificate verification against that CA (the
// certificate mode of worker authentication; leave it empty for the
// shared-token mode, where TLS only protects the channel).
func LoadServerTLS(certFile, keyFile, clientCAFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("transport: load server certificate: %w", err)
	}
	conf := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if clientCAFile != "" {
		pool, err := loadCertPool(clientCAFile)
		if err != nil {
			return nil, err
		}
		conf.ClientCAs = pool
		conf.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return conf, nil
}

// LoadClientTLS builds a worker-side TLS config from PEM files: the CA to
// verify the coordinator against (empty falls back to the system roots),
// an optional client certificate pair for the certificate authentication
// mode, and an optional server-name override for when the dialed address
// is an IP but the certificate names a host.
func LoadClientTLS(caFile, certFile, keyFile, serverName string) (*tls.Config, error) {
	conf := &tls.Config{
		MinVersion: tls.VersionTLS12,
		ServerName: serverName,
	}
	if caFile != "" {
		pool, err := loadCertPool(caFile)
		if err != nil {
			return nil, err
		}
		conf.RootCAs = pool
	}
	if certFile != "" || keyFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, fmt.Errorf("transport: load client certificate: %w", err)
		}
		conf.Certificates = []tls.Certificate{cert}
	}
	return conf, nil
}

func loadCertPool(caFile string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("transport: load CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("transport: no certificates in %s", caFile)
	}
	return pool, nil
}

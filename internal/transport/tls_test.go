package transport_test

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/transport"
)

// testPKI is a self-signed CA with one server and one client certificate,
// generated in memory — the smallest PKI a TLS deployment of the
// coordinator needs.
type testPKI struct {
	caPEM                       []byte
	serverCert, clientCert      tls.Certificate
	serverCertPEM, serverKeyPEM []byte
	clientCertPEM, clientKeyPEM []byte
}

func newTestPKI(t *testing.T) *testPKI {
	t.Helper()
	caKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "gridbb-test-ca"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &caKey.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		t.Fatal(err)
	}

	leaf := func(cn string, serial int64, server bool) (tls.Certificate, []byte, []byte) {
		key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		usage := x509.ExtKeyUsageClientAuth
		if server {
			usage = x509.ExtKeyUsageServerAuth
		}
		tmpl := &x509.Certificate{
			SerialNumber: big.NewInt(serial),
			Subject:      pkix.Name{CommonName: cn},
			NotBefore:    time.Now().Add(-time.Hour),
			NotAfter:     time.Now().Add(time.Hour),
			KeyUsage:     x509.KeyUsageDigitalSignature,
			ExtKeyUsage:  []x509.ExtKeyUsage{usage},
			IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, caCert, &key.PublicKey, caKey)
		if err != nil {
			t.Fatal(err)
		}
		keyDER, err := x509.MarshalECPrivateKey(key)
		if err != nil {
			t.Fatal(err)
		}
		certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
		keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
		cert, err := tls.X509KeyPair(certPEM, keyPEM)
		if err != nil {
			t.Fatal(err)
		}
		return cert, certPEM, keyPEM
	}

	p := &testPKI{caPEM: pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: caDER})}
	p.serverCert, p.serverCertPEM, p.serverKeyPEM = leaf("gridbb-farmer", 2, true)
	p.clientCert, p.clientCertPEM, p.clientKeyPEM = leaf("gridbb-worker", 3, false)
	return p
}

func (p *testPKI) caPool(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(p.caPEM) {
		t.Fatal("bad CA PEM")
	}
	return pool
}

// TestTLSRoundTrip: a full protocol call over TLS with server verification
// and shared-token worker authentication — the token mode.
func TestTLSRoundTrip(t *testing.T) {
	pki := newTestPKI(t)
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{
		TLS:   &tls.Config{Certificates: []tls.Certificate{pki.serverCert}, MinVersion: tls.VersionTLS12},
		Token: "fleet-token",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{
		TLS:   &tls.Config{RootCAs: pki.caPool(t), MinVersion: tls.VersionTLS12},
		Token: "fleet-token",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != transport.WorkAssigned {
		t.Fatalf("status = %v", reply.Status)
	}
}

// TestTLSClientCertMode: with a client CA configured, the handshake itself
// authenticates workers — a certificate-less dial is rejected and counted,
// a certified one is served.
func TestTLSClientCertMode(t *testing.T) {
	pki := newTestPKI(t)
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{TLS: &tls.Config{
		Certificates: []tls.Certificate{pki.serverCert},
		ClientCAs:    pki.caPool(t),
		ClientAuth:   tls.RequireAndVerifyClientCert,
		MinVersion:   tls.VersionTLS12,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	anon, err := transport.DialWith(srv.Addr(), transport.DialOptions{
		TLS:    &tls.Config{RootCAs: pki.caPool(t), MinVersion: tls.VersionTLS12},
		Policy: transport.Policy{Timeout: 2 * time.Second},
	})
	// TLS 1.3 reports a missing client certificate on first read, not at
	// handshake time: accept either a failed dial or a failed first call.
	if err == nil {
		if _, err := anon.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err == nil {
			t.Fatal("certificate-less client served in client-cert mode")
		}
		anon.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().AuthFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Stats().AuthFailures; got == 0 {
		t.Fatal("certificate-less dial not counted as an auth failure")
	}

	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{TLS: &tls.Config{
		RootCAs:      pki.caPool(t),
		Certificates: []tls.Certificate{pki.clientCert},
		MinVersion:   tls.VersionTLS12,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatalf("certified worker rejected: %v", err)
	}
}

// TestLoadTLSHelpers: the PEM-file loaders the cmd binaries use — write
// the test PKI to disk, load both ends, run a call.
func TestLoadTLSHelpers(t *testing.T) {
	pki := newTestPKI(t)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	caFile := write("ca.pem", pki.caPEM)
	serverConf, err := transport.LoadServerTLS(
		write("server.pem", pki.serverCertPEM), write("server.key", pki.serverKeyPEM), caFile)
	if err != nil {
		t.Fatal(err)
	}
	if serverConf.ClientAuth != tls.RequireAndVerifyClientCert {
		t.Fatal("client CA given but client certs not required")
	}
	clientConf, err := transport.LoadClientTLS(caFile,
		write("client.pem", pki.clientCertPEM), write("client.key", pki.clientKeyPEM), "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{TLS: serverConf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{TLS: clientConf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
}

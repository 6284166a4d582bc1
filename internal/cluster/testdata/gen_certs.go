//go:build ignore

// gen_certs regenerates the committed self-signed test certificate used by
// the cluster TLS tests and scripts/cluster_smoke.sh:
//
//	go run ./internal/cluster/testdata/gen_certs.go
//
// The certificate is its own CA (self-signed), bound to loopback only
// (127.0.0.1, ::1, localhost), and long-lived so the committed testdata
// does not rot. It secures nothing real: loopback test traffic only.
package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"log"
	"math/big"
	"net"
	"os"
	"time"
)

func main() {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "mtreescale-test", Organization: []string{"mtreescale tests"}},
		NotBefore:    time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2120, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1"), net.ParseIP("::1")},
		DNSNames:     []string{"localhost"},
		IsCA:         true, BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		log.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		log.Fatal(err)
	}
	write := func(path, typ string, der []byte) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := pem.Encode(f, &pem.Block{Type: typ, Bytes: der}); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	write("internal/cluster/testdata/test_cert.pem", "CERTIFICATE", der)
	write("internal/cluster/testdata/test_key.pem", "EC PRIVATE KEY", keyDER)
}

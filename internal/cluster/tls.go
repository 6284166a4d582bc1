package cluster

import (
	"crypto/tls"
	"crypto/x509"
	"net/http"
	"os"

	"mtreescale/internal/valid"
)

// NewTLSClient builds an HTTP client that trusts exactly the CA
// certificate(s) in the PEM file at caPath — the client side of the
// cluster's TLS story (mtctl -tls-ca). Trusting a private CA pool rather
// than the system roots means a self-signed deployment cert works without
// weakening verification: the server must still present a certificate
// chaining to the pinned CA for its hostname.
func NewTLSClient(caPath string) (*http.Client, error) {
	pem, err := os.ReadFile(caPath)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, valid.Badf("cluster: no CA certificates in %s", caPath)
	}
	return &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: pool},
		},
	}, nil
}

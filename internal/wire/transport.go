package wire

import (
	"fmt"

	"confbench/internal/api"
	"confbench/internal/obs"
)

// Transport is the hop-carrier interface, defined in internal/api so
// the api client can accept one without importing this package.
type Transport = api.Transport

// Transport names accepted by -transport flags and the WithTransport
// options.
const (
	TransportHTTPJSON = "httpjson"
	TransportBinary   = "binary"
)

// ValidTransport reports whether name selects a known transport. The
// empty string is valid and means the default (binary); "httpjson" is
// the explicit all-HTTP mode.
func ValidTransport(name string) bool {
	switch name {
	case "", TransportHTTPJSON, TransportBinary:
		return true
	}
	return false
}

// NewTransport builds the named transport. reg may be nil; the binary
// transport then runs without wire metrics.
func NewTransport(name string, reg *obs.Registry) (Transport, error) {
	switch name {
	case TransportHTTPJSON:
		return NewHTTPJSON(), nil
	case "", TransportBinary:
		return NewBinary(reg), nil
	}
	return nil, fmt.Errorf("wire: unknown transport %q (want %s or %s)", name, TransportHTTPJSON, TransportBinary)
}

package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Request decoding and cache-key derivation.
//
// The cache key of a request is the SHA-256 of its canonical form: the
// request body is decoded strictly (unknown fields rejected) into the
// spec struct, normalized (defaults filled in), validated, and re-marshaled
// by encoding/json. Because marshaling visits struct fields in declaration
// order, the canonical bytes — and therefore the hash — are independent of
// the field order, whitespace, and number spelling of the incoming JSON,
// and two requests that differ only in explicit-versus-implied defaults
// collide onto the same cache entry. JSON itself has no NaN/Inf literals,
// so non-finite floats never survive decoding, and the specs' Validate
// methods reject out-of-range values (negative λ included) before any key
// is derived.

// maxBodyBytes bounds a request body; the largest legitimate spec is well
// under a kilobyte.
const maxBodyBytes = 1 << 16

// httpError is an error with an HTTP status and a machine-readable error
// code attached (the "code" field of the JSON error body — stable strings
// like "bad_request", "breaker_open", "not_converged" that clients can
// branch on without parsing messages).
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{
		status: http.StatusBadRequest,
		code:   "bad_request",
		msg:    fmt.Sprintf(format, args...),
	}
}

// decodeStrict decodes r into v, rejecting unknown fields, trailing
// garbage, and oversized bodies.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return errBadRequest("invalid request body: trailing data after the JSON object")
	}
	return nil
}

// modelSpec is a mean-field request spec. A spec that passes Validate
// after Normalize builds its model.
type modelSpec interface {
	Normalize()
	Validate() error
}

// modelKey strictly decodes body into spec, normalizes and validates it
// without building the model, and returns its cache key under prefix.
func modelKey(body []byte, prefix string, spec modelSpec) (string, error) {
	if err := decodeStrict(bytes.NewReader(body), spec); err != nil {
		return "", err
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return "", errBadRequest("%v", err)
	}
	return canonicalKey(prefix, spec)
}

// canonicalKey hashes a normalized spec into its cache key. prefix
// namespaces the endpoint (fixed-point, ode, sim) so identical parameter
// sets on different endpoints never collide.
func canonicalKey(prefix string, spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return prefix + ":" + hex.EncodeToString(sum[:]), nil
}

package span

import (
	"encoding/hex"
	"strings"
)

// Traceparent is the W3C Trace Context header name (lowercase per spec;
// Go's http.Header canonicalizes on set/get either way).
const Traceparent = "traceparent"

// Traceparent renders the context as a W3C traceparent header value,
// version 00 with the sampled flag set:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-01
func (c Context) Traceparent() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value. It accepts any
// version byte except the invalid ff (per spec, future versions must stay
// prefix-compatible) and rejects all-zero trace or parent IDs. The second
// return is false when the header is absent or malformed — callers then
// start a fresh trace rather than failing the request.
func ParseTraceparent(h string) (Context, bool) {
	h = strings.TrimSpace(h)
	// version(2) - trace(32) - parent(16) - flags(2), dash-separated.
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return Context{}, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(h[0:2])); err != nil || ver[0] == 0xff {
		return Context{}, false
	}
	if ver[0] == 0 && len(h) != 55 {
		return Context{}, false
	}
	trace, err := ParseTraceID(h[3:35])
	if err != nil {
		return Context{}, false
	}
	var parent SpanID
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil || parent.IsZero() {
		return Context{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return Context{}, false
	}
	return Context{Trace: trace, Span: parent}, true
}

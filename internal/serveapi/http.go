package serveapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// contentTypeJSON is the Content-Type value of every JSON response, one
// slice shared by all of them so that setting it allocates nothing. It is
// never modified.
var contentTypeJSON = []string{"application/json"}

// maxPooledBody bounds the response buffers kept for reuse: the buffer of
// a rare large body (a full /v1/state of a big cluster) is dropped rather
// than held in the pool.
const maxPooledBody = 64 << 10

// A bodyEncoder is a response body buffer and the indenting encoder that
// writes into it, reused across responses through bodyEncoders.
type bodyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var bodyEncoders = sync.Pool{New: func() any {
	e := new(bodyEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// writeBody encodes v, indented, and writes the body in one Write. A value
// that does not encode writes no body.
func writeBody(w http.ResponseWriter, v any) {
	e := bodyEncoders.Get().(*bodyEncoder)
	if e.enc.Encode(v) == nil {
		_, _ = w.Write(e.buf.Bytes()) // a failed write means the client is gone; no one is left to tell
	}
	if e.buf.Cap() > maxPooledBody {
		return
	}
	e.buf.Reset()
	bodyEncoders.Put(e)
}

// WriteJSON writes v as an indented JSON 200 response (indented so curl
// output stays readable). The body is encoded into a pooled buffer by a
// pooled encoder and written once, so a response costs no encoder of its
// own and the bytes match a fresh indenting json.Encoder's.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = contentTypeJSON
	writeBody(w, v)
}

// WriteError writes the uniform error envelope with the HTTP status.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	writeBody(w, Errorf(code, format, args...))
}

// WriteRetryAfter writes a 429 queue_full envelope with the Retry-After
// header admission control promises (seconds, rounded up to at least 1).
func WriteRetryAfter(w http.ResponseWriter, seconds int, format string, args ...any) {
	if seconds < 1 {
		seconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	WriteError(w, http.StatusTooManyRequests, CodeQueueFull, format, args...)
}

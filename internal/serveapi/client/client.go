// Package client is the typed Go client of toposerve's /v1 API. It
// speaks only the wire types of internal/serveapi — every request and
// response marshals through the same structs the server uses, so the
// e2e tests and the load generator exercise the wire format from both
// sides.
//
// Every call takes a context (set deadlines there); 429 queue_full
// responses are retried automatically with the server's Retry-After
// delay (capped, with exponential backoff as the fallback) up to
// MaxRetries attempts. Any other non-2xx response is returned as an
// *APIError carrying the envelope's machine-readable code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gputopo/internal/serveapi"
)

// APIError is a non-2xx response decoded from the uniform error
// envelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // serveapi.Code* constant
	Message string
	// RetryAfter is the parsed Retry-After delay of a 429 (0 otherwise).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("toposerve: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsCode reports whether err is an *APIError with the envelope code.
//
//lint:ignore deadcode test helper: client and serve tests match error envelopes through it
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// Client calls one toposerve instance.
type Client struct {
	base string
	http *http.Client

	// MaxRetries bounds the automatic retries of 429 queue_full
	// responses (0 disables retrying). Each retry waits the server's
	// Retry-After, capped at MaxRetryWait.
	MaxRetries int
	// MaxRetryWait caps one retry sleep (default 5s).
	MaxRetryWait time.Duration

	retries429 atomic.Int64
	requests   atomic.Int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient overrides the underlying *http.Client (default:
// http.DefaultClient with a 30s timeout clone).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithMaxRetries sets the 429 retry budget.
func WithMaxRetries(n int) Option { return func(c *Client) { c.MaxRetries = n } }

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(base, "/"),
		http:         &http.Client{Timeout: 30 * time.Second},
		MaxRetries:   4,
		MaxRetryWait: 5 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Stats reports the client's lifetime request and 429-retry counts —
// the load generator reads these to report admission-control pressure.
func (c *Client) Stats() (requests, retries429 int64) {
	return c.requests.Load(), c.retries429.Load()
}

// BaseURL returns the server base URL the client was built with.
//
//lint:ignore deadcode test helper: serve tests derive raw endpoints from their client through it
func (c *Client) BaseURL() string { return c.base }

// doJSON performs one HTTP exchange: marshal body (when non-nil), send,
// decode a 2xx into out (when non-nil) or a non-2xx into an *APIError.
// 429s are retried per the client's budget.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: marshal %s %s: %w", method, path, err)
		}
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.requests.Add(1)
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
			}
			return nil
		}
		apiErr := decodeAPIError(resp, data)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.MaxRetries {
			return apiErr
		}
		c.retries429.Add(1)
		if err := c.sleep(ctx, c.retryDelay(apiErr.RetryAfter, attempt)); err != nil {
			return err
		}
	}
}

// retryDelay picks the sleep before a 429 retry: the server's
// Retry-After when present, else exponential backoff from 100ms; both
// capped at MaxRetryWait.
func (c *Client) retryDelay(retryAfter time.Duration, attempt int) time.Duration {
	d := retryAfter
	if d <= 0 {
		d = 100 * time.Millisecond << uint(attempt)
	}
	if max := c.MaxRetryWait; max > 0 && d > max {
		d = max
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeAPIError turns a non-2xx response into an *APIError, tolerating
// bodies that are not the envelope (proxies, panics).
func decodeAPIError(resp *http.Response, data []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(data))}
	var env serveapi.ErrorResponse
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		ae.Code, ae.Message = env.Error.Code, env.Error.Message
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			ae.RetryAfter = time.Duration(sec) * time.Second
		}
	}
	return ae
}

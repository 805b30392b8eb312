package main

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"gputopo/internal/schedcore"
	"gputopo/internal/serve"
	"gputopo/internal/serveapi"
	"gputopo/internal/serveapi/client"
	"gputopo/internal/sweep"
)

// TestStalledBodyIsDisconnected: a client that sends its headers and
// then stalls its body loses the connection within the read bound, and
// a normal submit on another connection is answered while it stalls.
func TestStalledBodyIsDisconnected(t *testing.T) {
	spec, err := sweep.ParseTopologyArg("minsky:1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Spec: spec, Policy: schedcore.TopoAwareP})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := newHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts %v/%v/%v/%v do not match the constants",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	// The shipped bound is tens of seconds; the test keeps the wiring and
	// shortens the wait.
	const bound = 300 * time.Millisecond
	hs.ReadTimeout = bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	// Before the dial: the server may start the connection's read deadline
	// before Dial returns here.
	start := time.Now()
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 200\r\n\r\n{\"id\":"); err != nil {
		t.Fatal(err)
	}

	jr, err := client.New("http://"+ln.Addr().String()).SubmitJob(context.Background(), serveapi.JobRequest{
		ID: "a", Model: "AlexNet", BatchSize: 4, GPUs: 2, MinUtility: 0.5,
	})
	if err != nil || jr.Status != "placed" {
		t.Fatalf("submit beside a stalled connection: %+v, %v", jr, err)
	}

	// The server answers the half-sent request with an error and hangs
	// up: reading to EOF returns instead of blocking until the deadline.
	stalled.SetReadDeadline(start.Add(20 * bound))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open %v after its headers: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < bound {
		t.Fatalf("disconnected after %v, before the %v bound", waited, bound)
	}
}

package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/vfs"
)

// smallOpts builds a tiny tree so test workloads exercise flushes and
// background compaction, not just the memtable.
func smallOpts() core.Options {
	return core.Options{
		FS:                 vfs.Mem(),
		Policy:             compaction.LDC,
		MemTableSize:       8 << 10,
		SSTableSize:        8 << 10,
		Fanout:             4,
		SliceLinkThreshold: 3,
		BlockSize:          512,
		BlockCacheSize:     1 << 20,
	}
}

// startServer opens a mem-backed DB, serves it on an ephemeral port, and
// returns the server, its address, and a channel carrying Serve's return.
// Callers own shutdown (srv.Shutdown closes the DB).
func startServer(t testing.TB, cfg Config) (*Server, string, chan error) {
	t.Helper()
	db, err := core.Open("/db", smallOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv, err := New(db, cfg)
	if err != nil {
		db.Close()
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), serveErr
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

func TestServerBasicCommands(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Set([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, err := c.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v; want 1", v, err)
	}
	if _, err := c.Get([]byte("missing")); !errors.Is(err, client.ErrNil) {
		t.Fatalf("Get missing = %v; want ErrNil", err)
	}
	if n, err := c.Del([]byte("alpha")); err != nil || n != 1 {
		t.Fatalf("Del = %d, %v; want 1", n, err)
	}
	if _, err := c.Get([]byte("alpha")); !errors.Is(err, client.ErrNil) {
		t.Fatalf("Get after Del = %v; want ErrNil", err)
	}

	if _, err := c.Do("MSET", "k1", "v1", "k2", "v2", "k3", "v3"); err != nil {
		t.Fatalf("MSET: %v", err)
	}
	vals, err := c.MGet([]byte("k1"), []byte("nope"), []byte("k3"))
	if err != nil {
		t.Fatalf("MGet: %v", err)
	}
	if string(vals[0]) != "v1" || vals[1] != nil || string(vals[2]) != "v3" {
		t.Fatalf("MGet = %q", vals)
	}

	if n, err := c.DBSize(); err != nil || n != 3 {
		t.Fatalf("DBSize = %d, %v; want 3", n, err)
	}

	// Command and argument errors come back as resp.Error replies.
	if _, err := c.Do("NOSUCH"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("NOSUCH err = %v", err)
	}
	var respErr resp.Error
	if _, err := c.Do("GET"); !errors.As(err, &respErr) {
		t.Fatalf("GET arity err = %v; want resp.Error", err)
	}

	if v, err := c.Do("ECHO", "hello"); err != nil || string(v.([]byte)) != "hello" {
		t.Fatalf("ECHO = %v, %v", v, err)
	}
	if _, err := c.Do("SELECT", "0"); err != nil {
		t.Fatalf("SELECT 0: %v", err)
	}
	if _, err := c.Do("SELECT", "7"); err == nil {
		t.Fatal("SELECT 7 should fail on a single-database server")
	}
}

func TestServerScanPagination(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	p := c.Pipeline()
	for i := 0; i < 100; i++ {
		p.Do("SET", []byte{'k', byte('0' + i/10), byte('0' + i%10)}, "v")
	}
	if _, err := p.Exec(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}

	var got []string
	cursor := []byte("0")
	rounds := 0
	for {
		next, keys, err := c.Scan(cursor, 7)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		for _, k := range keys {
			got = append(got, string(k))
		}
		rounds++
		if string(next) == "0" {
			break
		}
		cursor = next
		if rounds > 100 {
			t.Fatal("scan did not terminate")
		}
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d keys, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order: %q before %q", got[i-1], got[i])
		}
	}
}

// TestServerScanCount pages a 3-key store with COUNTs around its size and at
// the largest integer, which must read as "everything", not overflow the
// one-extra-pair lookahead.
func TestServerScanCount(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()
	if _, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil {
		t.Fatalf("MSET: %v", err)
	}
	for _, tc := range []struct {
		count int
		next  string
		keys  string
	}{
		{1, "b", "a"},
		{2, "c", "a b"},
		{3, "0", "a b c"},
		{4, "0", "a b c"},
		{math.MaxInt, "0", "a b c"},
	} {
		next, keys, err := c.Scan([]byte("0"), tc.count)
		if err != nil {
			t.Fatalf("SCAN 0 COUNT %d: %v", tc.count, err)
		}
		if got := string(bytes.Join(keys, []byte(" "))); string(next) != tc.next || got != tc.keys {
			t.Errorf("SCAN 0 COUNT %d = cursor %q, keys %q; want %q, %q", tc.count, next, got, tc.next, tc.keys)
		}
	}
}

// TestServerPipelineBatching is the coupling acceptance check: a pipelined
// burst of writes must reach the engine as few batches, not one Apply per
// command.
func TestServerPipelineBatching(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	const sets = 500
	p := c.Pipeline()
	for i := 0; i < sets; i++ {
		p.Do("SET", []byte{byte(i >> 8), byte(i)}, "v")
	}
	replies, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(replies) != sets {
		t.Fatalf("got %d replies, want %d", len(replies), sets)
	}
	for i, r := range replies {
		if s, ok := r.(string); !ok || s != "OK" {
			t.Fatalf("reply %d = %v, want OK", i, r)
		}
	}
	m := srv.Metrics()
	if m.ApplyOps < sets {
		t.Fatalf("ApplyOps = %d, want >= %d", m.ApplyOps, sets)
	}
	if m.ApplyBatches*5 > m.ApplyOps {
		t.Fatalf("batching too weak: %d batches for %d ops", m.ApplyBatches, m.ApplyOps)
	}
}

// TestServerReadYourWrites exercises the mid-pipeline flush: a GET between
// pipelined SETs must observe the SET before it, and replies must stay in
// command order.
func TestServerReadYourWrites(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	p := c.Pipeline()
	p.Do("SET", "x", "1")
	p.Do("GET", "x")
	p.Do("SET", "x", "2")
	p.Do("GET", "x")
	p.Do("DEL", "x")
	p.Do("GET", "x")
	replies, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := []interface{}{"OK", "1", "OK", "2", int64(1), nil}
	for i, w := range want {
		got := replies[i]
		switch w := w.(type) {
		case string:
			if s, ok := got.(string); ok && s == w {
				continue
			}
			if b, ok := got.([]byte); ok && string(b) == w {
				continue
			}
			t.Fatalf("reply %d = %#v, want %q", i, got, w)
		case int64:
			if n, ok := got.(int64); !ok || n != w {
				t.Fatalf("reply %d = %#v, want %d", i, got, w)
			}
		case nil:
			if b, ok := got.([]byte); !ok || b != nil {
				t.Fatalf("reply %d = %#v, want nil bulk", i, got)
			}
		}
	}
}

func TestServerInfo(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	info, err := c.Info("")
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	for _, want := range []string{
		"# Server", "# Clients", "# Stats", "# Commandstats", "# Engine",
		"connected_clients:1", "write_groups_total:", "avg_group_size:",
		"apply_batches:", "cmdstat_set:",
		"write_latency_usec:count=", "read_latency_usec:count=", "read_latency_sample_every:16",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q", want)
		}
	}
	// The background I/O rate limiter is deleted; so are its counters.
	if strings.Contains(info, "io_sched_") {
		t.Errorf("INFO still carries io_sched_ lines:\n%s", info)
	}
	engine, err := c.Info("engine")
	if err != nil {
		t.Fatalf("Info engine: %v", err)
	}
	if strings.Contains(engine, "# Server") || !strings.Contains(engine, "# Engine") {
		t.Fatalf("sectioned INFO wrong: %q", engine)
	}
}

func TestServerIdleTimeout(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("expected idle server to close the connection")
	}
	waitConns(t, srv, 0)
}

func TestServerMaxConnsBackpressure(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{MaxConns: 1})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()

	c1 := dial(t, addr)
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	// Second client connects (kernel backlog) but is not served until the
	// first disconnects.
	c2 := dial(t, addr)
	defer c2.Close()
	pinged := make(chan error, 1)
	go func() { pinged <- c2.Ping() }()
	select {
	case err := <-pinged:
		t.Fatalf("second client served beyond MaxConns=1 (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("second client ping after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second client never served after slot freed")
	}
}

// TestServerRepliesInCommandOrder sends one raw burst whose error replies
// and QUIT's +OK follow writes still pending in the connection's batch: each
// reply must wait for the acks of the commands before it.
func TestServerRepliesInCommandOrder(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()
	var burst []byte
	for _, cmd := range [][]interface{}{
		{"SET", "a", "1"},
		{"SCAN", "0", "COUNT", "x"},
		{"DEL", "a"},
		{"SET", "b"},
		{"QUIT"},
	} {
		if burst, err = resp.AppendCommand(burst, cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatalf("Write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(nc) // QUIT closes the connection
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := "+OK\r\n" +
		"-ERR value is not an integer or out of range\r\n" +
		":1\r\n" +
		"-ERR wrong number of arguments for 'set' command\r\n" +
		"+OK\r\n"
	if string(got) != want {
		t.Fatalf("replies = %q, want %q", got, want)
	}
}

// TestServerCapsPipelinedBurst pipelines SETs worth more than one commit
// group: the connection applies them in group-sized slices, and the client
// still sees every ack in order and reads every key back.
func TestServerCapsPipelinedBurst(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	c := dial(t, addr)
	defer c.Close()

	const sets = 24
	val := bytes.Repeat([]byte("v"), 64<<10) // 24 x 64 KiB = 1.5 x commit.MaxGroupBytes
	p := c.Pipeline()
	for i := 0; i < sets; i++ {
		p.Do("SET", fmt.Sprintf("k%02d", i), val)
	}
	p.Do("PING") // a reply that must come after every ack
	replies, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(replies) != sets+1 {
		t.Fatalf("got %d replies, want %d", len(replies), sets+1)
	}
	for i, r := range replies[:sets] {
		if s, ok := r.(string); !ok || s != "OK" {
			t.Fatalf("reply %d = %v, want OK", i, r)
		}
	}
	if s, ok := replies[sets].(string); !ok || s != "PONG" {
		t.Fatalf("last reply = %v, want PONG", replies[sets])
	}
	if m := srv.Metrics(); m.ApplyBatches < 2 || m.ApplyOps != sets {
		t.Fatalf("%d ops in %d applies, want %d ops in at least 2", m.ApplyOps, m.ApplyBatches, sets)
	}
	for i := 0; i < sets; i++ {
		got, err := c.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("k%02d = %d bytes, %v; want the %d-byte value", i, len(got), err, len(val))
		}
	}
}

func TestServerProtocolError(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	defer func() {
		srv.Shutdown()
		<-serveErr
	}()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("*abc\r\n")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	n, _ := nc.Read(buf)
	if n == 0 || buf[0] != '-' {
		t.Fatalf("want error reply then close, got %q", buf[:n])
	}
	waitConns(t, srv, 0)
	if srv.Metrics().ProtoErrors != 1 {
		t.Fatalf("ProtoErrors = %d, want 1", srv.Metrics().ProtoErrors)
	}
}

func TestServerShutdownIdempotent(t *testing.T) {
	srv, addr, serveErr := startServer(t, Config{})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("Shutdown #%d: %v", i, err)
		}
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}
	if _, err := srv.db.Get([]byte("k")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("db.Get after Shutdown = %v, want ErrClosed", err)
	}
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("Dial after Shutdown should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"explicit", Config{MaxConns: 16, IdleTimeout: time.Second}, true},
		{"negative MaxConns", Config{MaxConns: -1}, false},
		{"negative IdleTimeout", Config{IdleTimeout: -time.Second}, false},
		{"negative WriteTimeout", Config{WriteTimeout: -time.Second}, false},
		{"negative DrainTimeout", Config{DrainTimeout: -time.Second}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate accepted a nonsensical config")
				}
				if !errors.Is(err, core.ErrInvalidOptions) {
					t.Fatalf("error %v does not wrap ErrInvalidOptions", err)
				}
				if _, nerr := New(nil, tc.cfg); nerr == nil {
					t.Fatal("New accepted an invalid config")
				}
			}
		})
	}
}

// waitConns polls until the live-connection gauge reaches want.
func waitConns(t testing.TB, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Metrics().ConnsCurrent == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ConnsCurrent = %d, want %d", srv.Metrics().ConnsCurrent, want)
}

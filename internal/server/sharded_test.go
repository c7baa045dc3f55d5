package server

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
)

// startShardedServer is startServer over a hash-partitioned engine.
func startShardedServer(t testing.TB, shards int) (*Server, string) {
	t.Helper()
	opts := smallOpts()
	opts.Shards = shards
	return serveDB(t, opts)
}

// serveDB opens a DB with opts and serves it on an ephemeral port with the
// default Config; the caller owns Shutdown.
func serveDB(t testing.TB, opts core.Options) (*Server, string) {
	t.Helper()
	db, err := core.Open("/db", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv, err := New(db, Config{})
	if err != nil {
		db.Close()
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String()
}

func TestServerShardedMGetAndScan(t *testing.T) {
	srv, addr := startShardedServer(t, 4)
	defer srv.Shutdown()
	c := dial(t, addr)
	defer c.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Set(kv(i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// MGET spans shards and must reply in request order with nulls for
	// missing keys.
	keys := [][]byte{kv(3), []byte("missing-a"), kv(150), kv(7), []byte("missing-b"), kv(0)}
	vals, err := c.MGet(keys...)
	if err != nil {
		t.Fatalf("MGET: %v", err)
	}
	want := [][]byte{[]byte("v-3"), nil, []byte("v-150"), []byte("v-7"), nil, []byte("v-0")}
	if len(vals) != len(want) {
		t.Fatalf("MGET returned %d values, want %d", len(vals), len(want))
	}
	for i := range want {
		if !bytes.Equal(vals[i], want[i]) {
			t.Errorf("MGET[%d] = %q, want %q", i, vals[i], want[i])
		}
	}

	// SCAN pages the merged keyspace in sorted order, every key exactly once.
	var got [][]byte
	cursor := []byte("0")
	for {
		next, page, err := c.Scan(cursor, 17)
		if err != nil {
			t.Fatalf("SCAN: %v", err)
		}
		got = append(got, page...)
		if string(next) == "0" {
			break
		}
		cursor = next
	}
	if len(got) != n {
		t.Fatalf("SCAN walked %d keys, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("SCAN out of order at %d: %q !< %q", i, got[i-1], got[i])
		}
	}

	// INFO carries the per-shard breakdown section.
	info, err := c.Info("")
	if err != nil {
		t.Fatalf("INFO: %v", err)
	}
	for _, wantLine := range []string{"# Shards", "shard_count:4", "shard0:puts=", "shard3:puts="} {
		if !strings.Contains(info, wantLine) {
			t.Errorf("INFO missing %q", wantLine)
		}
	}
	shardsOnly, err := c.Info("shards")
	if err != nil {
		t.Fatalf("INFO shards: %v", err)
	}
	if !strings.Contains(shardsOnly, "shard_count:4") || strings.Contains(shardsOnly, "# Engine") {
		t.Errorf("INFO shards section wrong:\n%s", shardsOnly)
	}

	// No cluster exists: CLUSTER is an unknown command like any other.
	if _, err := c.Do("CLUSTER", "INFO"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("CLUSTER INFO = %v, want the unknown-command error", err)
	}
}

func kv(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

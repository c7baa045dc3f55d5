package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/invariants"
	"repro/internal/resp"
)

// exactAllocs: the race detector makes sync.Pool drop items at random, and
// the invariants build allocates in its lock-rank checks, so an exact
// allocation count holds under neither.
const exactAllocs = !raceEnabled && !invariants.Enabled

// serveCommand runs one parsed command through c as the connection loop
// does.
func serveCommand(c *conn, cmd [][]byte) {
	start := time.Now()
	name := c.commandName(cmd[0])
	if !c.dispatch(name, cmd, start) {
		c.observe(name, start)
	}
}

// TestServedReadAllocs: a GET of a key that lies in a table allocates
// nothing in the server or the engine, answered at once with nothing owed
// (core.ReadLatest) or owed behind a pipelined SET and answered at its read
// point (core.ReadPoint.Read): the value is copied once, into the reply
// buffer. The SET it is owed behind allocates nothing either.
func TestServedReadAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	opts := smallOpts()
	opts.Shards, opts.Sync, opts.MemTableSize = 2, true, 64<<20
	db, err := core.Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := &conn{srv: srv, w: resp.NewWriter(&out)}
	get := [][]byte{[]byte("GET"), []byte("key-007")}
	set := [][]byte{[]byte("SET"), []byte("other"), value}
	reply := "$100\r\n" + string(value) + "\r\n"
	for _, tc := range []struct {
		name  string
		burst [][][]byte
		want  string
	}{
		{"un-owed GET", [][][]byte{get}, reply},
		{"SET, owed GET", [][][]byte{set, get}, "+OK\r\n" + reply},
	} {
		burst := func() {
			out.Reset()
			for _, cmd := range tc.burst {
				serveCommand(c, cmd)
			}
			if !c.settle() || c.w.Flush() != nil {
				t.Fatalf("%s: the burst failed", tc.name)
			}
		}
		for i := 0; i < 10; i++ { // warm the pools, the reply buffer and the block cache
			burst()
		}
		if out.String() != tc.want {
			t.Fatalf("%s: replies %q, want %q", tc.name, out.String(), tc.want)
		}
		if got := testing.AllocsPerRun(200, burst); got != 0 {
			t.Errorf("%s: %.0f allocations per burst, want 0", tc.name, got)
		}
	}
	if n := db.Stats().Gets; n < 2*210 {
		t.Fatalf("%d Gets counted, want every GET's", n)
	}
}

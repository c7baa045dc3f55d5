package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/resp"
	"repro/internal/vfs"
)

// A pipelined burst's write segments are submitted as soon as a read ends
// them, and each GET or MGET answers at the read point it took where it
// stood in the stream (core.TakeReadPoint), so a burst's fsyncs overlap.
// These tests pin what that owes under durable writes, where a segment is
// still in its fsync when the next command is parsed: a read sees its own
// connection's earlier writes and none of its later ones, everything
// acknowledged before it was sent, and — two connections racing — at least
// one of the two writes they race on; a failed segment ends the connection
// with errors and leaks no point; and Shutdown outlives no commit.

// durableOpts is smallOpts over shards with Sync on and every WAL and
// value-log fsync charged delay, so segments overlap the parsing behind them.
func durableOpts(shards int, delay time.Duration) core.Options {
	opts := smallOpts()
	opts.Shards = shards
	opts.Sync = true
	opts.FS = &slowSyncFS{FS: opts.FS, delay: delay}
	return opts
}

// wantReplies fails the test unless replies match want positionally: a
// string matches a simple string or a bulk of those bytes, an int64 an
// integer, nil a null bulk.
func wantReplies(t testing.TB, replies []interface{}, want []interface{}) {
	t.Helper()
	if len(replies) != len(want) {
		t.Fatalf("got %d replies %v, want %d", len(replies), replies, len(want))
	}
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

// TestServerPipelinedStoreBuffer is the store-buffer litmus test: two
// connections each pipeline SET pad; SET own; GET other; SET after, at the
// same time, 400 rounds. Whichever takes its read point second sees the
// other's write, so the GETs never both miss — at any shard count, although
// both writes are still in their fsyncs when the GETs are parsed.
func TestServerPipelinedStoreBuffer(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, addr := serveDB(t, durableOpts(shards, 300*time.Microsecond))
			defer srv.Shutdown()
			a, b := dial(t, addr), dial(t, addr)
			defer a.Close()
			defer b.Close()
			pad := bytes.Repeat([]byte("p"), 100)
			burst := func(c *client.Client, own, other string) (interface{}, error) {
				p := c.Pipeline()
				p.Do("SET", "pad-"+own, pad)
				p.Do("SET", own, "1")
				p.Do("GET", other)
				p.Do("SET", "after-"+own, "1")
				replies, err := p.Exec()
				if err != nil {
					return nil, err
				}
				if len(replies) != 4 {
					return nil, fmt.Errorf("%d replies %v", len(replies), replies)
				}
				return replies[2], nil
			}
			for r := 0; r < 400; r++ {
				ka, kb := fmt.Sprintf("a-%d", r), fmt.Sprintf("b-%d", r)
				var ga, gb interface{}
				var ea, eb error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); ga, ea = burst(a, ka, kb) }()
				go func() { defer wg.Done(); gb, eb = burst(b, kb, ka) }()
				wg.Wait()
				if ea != nil || eb != nil {
					t.Fatalf("round %d: %v / %v", r, ea, eb)
				}
				missA, missB := ga == nil || ga.([]byte) == nil, gb == nil || gb.([]byte) == nil
				if missA && missB {
					t.Fatalf("round %d: both GETs missed the other connection's write", r)
				}
			}
		})
	}
}

// TestServerPipelinedOwnOrder: TestServerReadYourWrites' burst under durable
// writes, each SET still in its fsync when the GET behind it is parsed. Every
// GET sees the connection's writes before it and none after it.
func TestServerPipelinedOwnOrder(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, addr := serveDB(t, durableOpts(shards, 300*time.Microsecond))
			defer srv.Shutdown()
			c := dial(t, addr)
			defer c.Close()
			for r := 0; r < 50; r++ {
				x, y := fmt.Sprintf("x-%d", r), fmt.Sprintf("y-%d", r)
				p := c.Pipeline()
				p.Do("SET", x, "1")
				p.Do("GET", x)
				p.Do("SET", x, "2")
				p.Do("SET", y, "1")
				p.Do("GET", x)
				p.Do("GET", y)
				p.Do("DEL", x)
				p.Do("GET", x)
				p.Do("GET", y)
				replies, err := p.Exec()
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				wantReplies(t, replies, []interface{}{"OK", "1", "OK", "OK", "2", "1", int64(1), nil, "1"})
			}
		})
	}
}

// TestServerPipelinedAckedBeforeSent: connection A has a segment in flight
// and a GET owed when connection B's SET is acknowledged; A's next GET, sent
// after that acknowledgement, sees it. A's burst is split mid-command, so
// the server holds A's segment and first point while B writes.
func TestServerPipelinedAckedBeforeSent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, addr := serveDB(t, durableOpts(shards, 300*time.Microsecond))
			defer srv.Shutdown()
			b := dial(t, addr)
			defer b.Close()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			r := resp.NewReader(nc)
			for round := 0; round < 20; round++ {
				k := fmt.Sprintf("b-%d", round)
				var head, tail []byte
				for _, cmd := range [][]interface{}{{"SET", fmt.Sprintf("a-%d", round), "1"}, {"GET", "none"}} {
					if head, err = resp.AppendCommand(head, cmd...); err != nil {
						t.Fatal(err)
					}
				}
				if tail, err = resp.AppendCommand(nil, "GET", k); err != nil {
					t.Fatal(err)
				}
				cut := len(tail) - len(k) - 2 // the key is still to come
				if _, err := nc.Write(append(head, tail[:cut]...)); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for core.LiveReadPoints(srv.db) == 0 { // A's GET none took its point
					if time.Now().After(deadline) {
						t.Fatal("A's first GET never took its read point")
					}
					time.Sleep(50 * time.Microsecond)
				}
				if err := b.Set([]byte(k), []byte("acked")); err != nil {
					t.Fatal(err)
				}
				if _, err := nc.Write(tail[cut:]); err != nil {
					t.Fatal(err)
				}
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				var replies []interface{}
				for i := 0; i < 3; i++ {
					v, err := r.ReadReply()
					if err != nil {
						t.Fatalf("round %d reply %d: %v", round, i, err)
					}
					replies = append(replies, v)
				}
				wantReplies(t, replies, []interface{}{"OK", nil, "acked"})
			}
		})
	}
}

// TestServerPipelinedLongBurst: a burst that owes more replies than a
// connection keeps in flight — a hundred SET/GET pairs, then a run of GETs —
// drains part-way and still answers every command in order.
func TestServerPipelinedLongBurst(t *testing.T) {
	srv, addr := serveDB(t, durableOpts(2, 300*time.Microsecond))
	defer srv.Shutdown()
	c := dial(t, addr)
	defer c.Close()
	p := c.Pipeline()
	var want []interface{}
	for i := 0; i < 100; i++ {
		p.Do("SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		p.Do("GET", fmt.Sprintf("k%d", i))
		want = append(want, "OK", fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 100; i++ {
		p.Do("GET", fmt.Sprintf("k%d", i%7))
		want = append(want, fmt.Sprintf("v%d", i%7))
	}
	replies, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	wantReplies(t, replies, want)
	if m := srv.Metrics(); m.ApplyBatches != 100 || m.ApplyOps != 100 {
		t.Fatalf("%d ops in %d segments, want 100 in 100", m.ApplyOps, m.ApplyBatches)
	}
}

// TestServerPipelinedCommandTimes: an owed GET is timed from its dispatch
// until its reply is written, but a connection's command times never
// overlap, so their sum stays within the bursts' round trips even though a
// burst's GETs all wait for their read points at once.
func TestServerPipelinedCommandTimes(t *testing.T) {
	const fsync = 2 * time.Millisecond
	srv, addr := serveDB(t, durableOpts(2, fsync))
	defer srv.Shutdown()
	c := dial(t, addr)
	defer c.Close()
	var rtt time.Duration
	for r := 0; r < 30; r++ {
		p := c.Pipeline()
		for i := 0; i < 16; i++ {
			if k := fmt.Sprintf("k%d-%d", r, i/4); i%4 == 3 {
				p.Do("GET", k)
			} else {
				p.Do("SET", k, "v")
			}
		}
		start := time.Now()
		if _, err := p.Exec(); err != nil {
			t.Fatal(err)
		}
		rtt += time.Since(start)
	}
	var total, get time.Duration
	for _, cs := range srv.Metrics().Commandstats {
		total += time.Duration(cs.Calls) * cs.Mean
		if cs.Name == "get" {
			get = cs.Mean
		}
	}
	if total > rtt {
		t.Errorf("command times sum to %v, more than the bursts' round trips, %v", total, rtt)
	}
	// A burst's first GET waits for its segment's fsync, most of which is
	// still to run when the burst is parsed.
	if get < fsync/8 {
		t.Errorf("mean GET time %v leaves out the wait for its read point", get)
	}
}

// TestServerPipelinedMGet: an MGET takes its keys' points where it stands,
// so the SET behind it in the burst is not seen, at one shard and at two.
func TestServerPipelinedMGet(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, addr := serveDB(t, durableOpts(shards, 300*time.Microsecond))
			defer srv.Shutdown()
			c := dial(t, addr)
			defer c.Close()
			p := c.Pipeline()
			p.Do("SET", "a", "a1")
			p.Do("SET", "b", "b1")
			p.Do("MGET", "a", "b", "none")
			p.Do("SET", "a", "a2")
			p.Do("GET", "a")
			replies, err := p.Exec()
			if err != nil {
				t.Fatal(err)
			}
			wantReplies(t, append(replies[:2:2], replies[3:]...), []interface{}{"OK", "OK", "OK", "a2"})
			vals, ok := replies[2].([]interface{})
			if !ok || len(vals) != 3 {
				t.Fatalf("MGET reply = %#v, want a 3-element array", replies[2])
			}
			wantReplies(t, vals, []interface{}{"a1", "b1", nil})
		})
	}
}

// TestServerPipelinedFsyncFailure: every WAL fsync fails. The burst's first
// segment is acknowledged with an error and nothing after it is answered —
// neither the GETs nor the later segment nor the PING — the connection
// closes, and no read point stays registered.
func TestServerPipelinedFsyncFailure(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			efs := vfs.NewErrFS(vfs.Mem())
			opts := smallOpts()
			opts.FS, opts.Shards, opts.Sync = efs, shards, true
			srv, addr := serveDB(t, opts)
			defer srv.Shutdown()
			injected := errors.New("injected fsync failure")
			efs.SetSyncHook(func(name string) error {
				if strings.HasSuffix(name, ".log") {
					return injected
				}
				return nil
			})

			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			var burst []byte
			for _, cmd := range [][]interface{}{
				{"SET", "a", "1"},
				{"GET", "a"},
				{"SET", "b", "2"},
				{"GET", "b"},
				{"MGET", "a", "b"},
				{"PING"},
			} {
				if burst, err = resp.AppendCommand(burst, cmd...); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := nc.Write(burst); err != nil {
				t.Fatal(err)
			}
			nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			got, err := io.ReadAll(nc) // the server closes the connection
			if err != nil {
				t.Fatalf("ReadAll: %v (read %q)", err, got)
			}
			if !strings.HasPrefix(string(got), "-ERR ") || strings.Count(string(got), "\r\n") != 1 ||
				!strings.Contains(string(got), injected.Error()) {
				t.Fatalf("replies = %q, want one error naming the failed fsync", got)
			}
			waitConns(t, srv, 0)
			if n := core.LiveReadPoints(srv.db); n != 0 {
				t.Fatalf("%d read points still registered after the connection closed", n)
			}
		})
	}
}

// TestServerPipelinedShutdown: four connections are mid-burst, with
// segments in their fsyncs and GETs owed, when Shutdown starts; two of them
// hang up in the middle of a command, so their connections end with replies
// still owed. Shutdown waits for all of it: once it has returned no segment
// commit and no connection goroutine is left, and no read point is
// registered.
func TestServerPipelinedShutdown(t *testing.T) {
	srv, addr := serveDB(t, durableOpts(2, 2*time.Millisecond))
	var burst []byte
	for i := 0; i < 100; i++ {
		var err error
		if burst, err = resp.AppendCommand(burst, "SET", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if burst, err = resp.AppendCommand(burst, "GET", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	torn := append(burst[:len(burst):len(burst)], "*2\r\n$3\r\nGET\r\n"...)
	for i := 0; i < 4; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if i%2 == 0 {
			_, err = nc.Write(burst)
		} else {
			_, err = nc.Write(torn)
			_ = nc.Close() // hang up in the middle of the last command
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // let the bursts get segments into their fsyncs
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := core.LiveReadPoints(srv.db); n != 0 {
		t.Fatalf("%d read points still registered after Shutdown", n)
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "repro/internal/core.newSegment") &&
			!strings.Contains(stacks, "repro/internal/server.(*conn)") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlived Shutdown:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
)

// slowSyncFS charges a fixed latency for every Sync of a .log or .vlog
// file — the same stand-in for a device fsync that core's group-commit
// benchmark uses. With durable writes this is the cost pipelining
// amortizes: one WAL sync per burst instead of one per command.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

func (s *slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".vlog") {
		return &slowSyncFile{File: f, delay: s.delay}, nil
	}
	return f, nil
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// benchOpts is a production-shaped tree (default sizes) on the in-memory
// FS, so the benchmark measures the serving layer and commit pipeline, not
// flush churn from a deliberately tiny memtable. sync=true adds a 100 µs
// simulated fsync on the WAL.
func benchOpts(sync bool) core.Options {
	o := core.Options{
		FS:     vfs.Mem(),
		Policy: compaction.LDC,
		Sync:   sync,
	}
	if sync {
		o.FS = &slowSyncFS{FS: o.FS, delay: 100 * time.Microsecond}
	}
	return o
}

// startBenchServer serves a mem-backed DB on an ephemeral port.
func startBenchServer(b *testing.B, sync bool) (*Server, string, func()) {
	b.Helper()
	db, err := core.Open("/bench", benchOpts(sync))
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	srv, err := New(db, Config{MaxConns: 256})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), func() {
		srv.Shutdown()
		<-serveErr
	}
}

// benchConns dials n clients and returns them with a closer.
func benchConns(b *testing.B, addr string, n int) []*client.Client {
	b.Helper()
	cs := make([]*client.Client, n)
	for i := range cs {
		c, err := client.Dial(addr)
		if err != nil {
			b.Fatalf("Dial: %v", err)
		}
		b.Cleanup(func() { c.Close() })
		cs[i] = c
	}
	return cs
}

// runPipelined splits b.N commands across the clients, each sending bursts
// of depth commands per round trip via build, and fails on bad replies.
func runPipelined(b *testing.B, clients []*client.Client, depth int,
	build func(p *client.Pipeline, conn, seq int)) {
	b.ResetTimer()
	done := make(chan error, len(clients))
	per := b.N / len(clients)
	for ci, c := range clients {
		go func(ci int, c *client.Client) {
			p := c.Pipeline()
			for sent := 0; sent < per; {
				burst := depth
				if rest := per - sent; rest < burst {
					burst = rest
				}
				for j := 0; j < burst; j++ {
					build(p, ci, sent+j)
				}
				replies, err := p.Exec()
				if err != nil {
					done <- err
					return
				}
				for _, r := range replies {
					if e, ok := r.(error); ok {
						done <- e
						return
					}
				}
				sent += burst
			}
			done <- nil
		}(ci, c)
	}
	for range clients {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPipelinedSet measures full-stack write throughput —
// client encode, loopback TCP, RESP parse, per-connection batching, the
// commit pipeline — across connection counts and pipeline depths. Depth is
// the lever: one round trip per depth commands, one engine batch per
// burst.
func BenchmarkServerPipelinedSet(b *testing.B) {
	for _, sync := range []bool{false, true} {
		for _, conns := range []int{1, 16, 64} {
			for _, depth := range []int{1, 16} {
				b.Run(fmt.Sprintf("sync=%v/conns=%d/depth=%d", sync, conns, depth), func(b *testing.B) {
					srv, addr, stop := startBenchServer(b, sync)
					defer stop()
					clients := benchConns(b, addr, conns)
					val := make([]byte, 16)
					runPipelined(b, clients, depth, func(p *client.Pipeline, ci, seq int) {
						p.Do("SET", fmt.Sprintf("k%02d-%08d", ci, seq), val)
					})
					b.StopTimer()
					m := srv.Metrics()
					if m.ApplyBatches > 0 {
						b.ReportMetric(float64(m.ApplyOps)/float64(m.ApplyBatches), "ops/apply")
					}
				})
			}
		}
	}
}

// BenchmarkServerGet measures full-stack point-read throughput over a
// preloaded keyspace (every get hits).
func BenchmarkServerGet(b *testing.B) {
	const keys = 4096
	for _, conns := range []int{1, 16, 64} {
		for _, depth := range []int{1, 16} {
			b.Run(fmt.Sprintf("conns=%d/depth=%d", conns, depth), func(b *testing.B) {
				_, addr, stop := startBenchServer(b, false)
				defer stop()
				clients := benchConns(b, addr, conns)
				load := clients[0].Pipeline()
				val := make([]byte, 16)
				for i := 0; i < keys; i++ {
					load.Do("SET", fmt.Sprintf("g%08d", i), val)
				}
				if _, err := load.Exec(); err != nil {
					b.Fatalf("preload: %v", err)
				}
				runPipelined(b, clients, depth, func(p *client.Pipeline, ci, seq int) {
					p.Do("GET", fmt.Sprintf("g%08d", (ci*7919+seq)%keys))
				})
			})
		}
	}
}

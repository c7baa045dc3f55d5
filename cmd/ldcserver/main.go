// Command ldcserver serves an LDC database over TCP speaking a RESP2
// subset, so stock Redis tooling works against the engine:
//
//	ldcserver -db /tmp/ldc -addr 127.0.0.1:6380
//	redis-cli -p 6380 set k v
//	redis-cli -p 6380 get k
//	redis-benchmark -p 6380 -t set,get -P 16
//
// The server prints "listening on ADDR" once bound (useful with -addr
// ":0"), and drains gracefully on SIGINT/SIGTERM: it stops accepting,
// finishes commands already received, then closes the database.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/ldc"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ldcserver: "+format+"\n", args...)
	os.Exit(1)
}

func parsePolicy(s string) ldc.Policy {
	switch s {
	case "udc":
		return ldc.PolicyUDC
	case "ldc":
		return ldc.PolicyLDC
	}
	fail("unknown policy %q (want one of: udc, ldc)", s)
	panic("unreachable")
}

func main() {
	var (
		dir      = flag.String("db", "", "database directory (required)")
		addr     = flag.String("addr", "127.0.0.1:6380", "TCP listen address (use :0 for an ephemeral port)")
		policy   = flag.String("policy", "ldc", "compaction policy: udc, ldc")
		sync     = flag.Bool("sync", false, "fsync the WAL on every commit")
		shards   = flag.Int("shards", 0, "hash-partitioned engine shards (0 = the recorded count, or 1 for a new store; rounds up to a power of two)")
		maxConns = flag.Int("maxconns", 1024, "maximum simultaneous connections")
		idle     = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle for this long")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown wait before force-closing connections")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	db, err := ldc.Open(*dir, &ldc.Options{
		Policy: parsePolicy(*policy),
		Sync:   *sync,
		Shards: *shards,
	})
	if err != nil {
		fail("open: %v", err)
	}

	srv, err := server.New(db, server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		IdleTimeout:  *idle,
		DrainTimeout: *drain,
	})
	if err != nil {
		db.Close()
		fail("config: %v", err)
	}

	// Drain on SIGINT/SIGTERM; Shutdown closes the DB when the drain ends.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "ldcserver: %v: draining\n", sig)
		done <- srv.Shutdown()
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		fail("listen: %v", err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil && err != server.ErrServerClosed {
		fail("serve: %v", err)
	}
	if err := <-done; err != nil {
		fail("shutdown: %v", err)
	}
}

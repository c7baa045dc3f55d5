// Package server is the network serving layer: a TCP server speaking a
// RESP2 subset (GET/SET/DEL/MGET/MSET/SCAN/PING/INFO/DBSIZE and friends)
// over the LDC storage engine. Stock Redis tooling — redis-cli,
// redis-benchmark — works against it out of the box.
//
// Connection model: one goroutine per connection, with a hard connection
// limit enforced on the accept side — when MaxConns connections are live
// the accept loop stops calling Accept, so excess clients queue in the
// kernel backlog (backpressure) instead of being churned through
// accept-and-refuse.
//
// Pipelining couples directly into the engine's group commit: the write
// commands of a pipelined burst are absorbed into one batch, a segment
// (core.Segment), until a read or the end of the burst submits it. A
// submitted segment commits on while the connection parses on, so a burst's
// segments fsync side by side; a read answers later, at the read point it
// took where it stood in the burst (core.TakeReadPoint), and the replies go
// out in command order. Network concurrency therefore feeds the commit
// pipeline wider batches instead of fighting it with per-command commits.
//
// Shutdown drains gracefully: stop accepting, let every connection finish
// the commands it has already received, flush responses, then close the
// DB. Close semantics on the engine (ErrClosed after Close, idempotent
// Close) make the drain race-free.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/invariants"
)

// ErrServerClosed is returned by Serve after Shutdown completes.
var ErrServerClosed = errors.New("server: closed")

// Config tunes the serving layer. The zero value listens on
// 127.0.0.1:6380 with production-shaped limits.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:6380"). Use
	// port 0 to pick an ephemeral port; Server.Addr reports it.
	Addr string
	// MaxConns caps simultaneously served connections (default 1024). At
	// the cap the accept loop blocks — accept-side backpressure — rather
	// than accepting and refusing.
	MaxConns int
	// IdleTimeout closes a connection that sends no command for this long
	// (default 5m).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response-buffer flush to a client that has
	// stopped reading (default 30s).
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight connections before
	// it force-closes them (default 10s).
	DrainTimeout time.Duration
}

// Validate rejects nonsensical server configurations, wrapping
// core.ErrInvalidOptions like the engine's own Options.Validate.
func (c Config) Validate() error {
	if c.MaxConns < 0 {
		return fmt.Errorf("%w: MaxConns is negative (%d)", core.ErrInvalidOptions, c.MaxConns)
	}
	if c.IdleTimeout < 0 {
		return fmt.Errorf("%w: IdleTimeout is negative (%v)", core.ErrInvalidOptions, c.IdleTimeout)
	}
	if c.WriteTimeout < 0 {
		return fmt.Errorf("%w: WriteTimeout is negative (%v)", core.ErrInvalidOptions, c.WriteTimeout)
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("%w: DrainTimeout is negative (%v)", core.ErrInvalidOptions, c.DrainTimeout)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:6380"
	}
	if c.MaxConns == 0 {
		c.MaxConns = 1024
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server serves the RESP protocol over one DB. Create with New, start with
// ListenAndServe or Serve, stop with Shutdown (which closes the DB).
type Server struct {
	db  *core.DB
	cfg Config

	sem  chan struct{} // connection slots; acquired before Accept
	quit chan struct{} // closed by Shutdown: stop accepting, start draining

	mu    invariants.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	wg    sync.WaitGroup // live connection goroutines

	draining atomic.Bool

	shutdownOnce sync.Once
	shutdownErr  error
	shutdownDone chan struct{}

	started time.Time
	stats   serverStats
}

// New builds a server over db. The configuration must Validate.
func New(db *core.DB, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		db:           db,
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.MaxConns),
		quit:         make(chan struct{}),
		conns:        map[*conn]struct{}{},
		shutdownDone: make(chan struct{}),
		started:      time.Now(),
	}
	s.mu.Rank("server.server.mu", 10)
	s.stats.init()
	return s, nil
}

// Addr reports the bound listen address (useful with ":0"), or nil before
// Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown, then returns
// ErrServerClosed. A connection slot is acquired before each Accept call,
// so at MaxConns live connections new clients wait in the listen backlog
// instead of being accepted.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		// Accept-side backpressure: no slot, no Accept.
		select {
		case s.sem <- struct{}{}:
		case <-s.quit:
			return ErrServerClosed
		}
		nc, err := ln.Accept()
		if err != nil {
			<-s.sem
			select {
			case <-s.quit:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.stats.connsAccepted.Add(1)
		s.stats.connsCurrent.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// remove unregisters a finished connection and frees its slot.
func (s *Server) remove(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stats.connsCurrent.Add(-1)
	<-s.sem
	s.wg.Done()
}

// Shutdown drains the server gracefully: stop accepting, wake idle
// connections, let busy ones finish the commands they have already
// received (bounded by DrainTimeout, after which sockets are force-
// closed), then close the DB. Idempotent and safe to call concurrently;
// every call returns after the teardown completes.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		close(s.quit)
		s.mu.Lock()
		ln := s.ln
		live := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			live = append(live, c)
		}
		s.mu.Unlock()
		if ln != nil {
			_ = ln.Close() // unblocks Accept; double-close on a dead listener is harmless
		}
		// Wake connections parked in a blocking read: an immediate read
		// deadline makes the read return now; the connection loop observes
		// draining, flushes, and exits. Connections mid-command keep going
		// until their received burst is done.
		for _, c := range live {
			c.nc.SetReadDeadline(time.Now())
		}

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
			// Stragglers (a client that never drains its responses, a
			// command wedged on a dead socket): sever and wait again —
			// the loops exit on the resulting I/O errors.
			s.mu.Lock()
			stuck := make([]*conn, 0, len(s.conns))
			for c := range s.conns {
				stuck = append(stuck, c)
			}
			s.mu.Unlock()
			for _, c := range stuck {
				_ = c.nc.Close() // severing; the conn loop reports its own exit
			}
			<-done
		}
		s.shutdownErr = s.db.Close()
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	return s.shutdownErr
}

// Metrics snapshots the server-side counters (see serverStats).
func (s *Server) Metrics() Metrics {
	return s.stats.snapshot(s.started)
}

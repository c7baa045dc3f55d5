package server

import (
	"errors"
	"math"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/batch"
	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/resp"
)

// scanDefaultCount is SCAN's page size when no COUNT is given (Redis's
// default).
const scanDefaultCount = 10

// pendingReply is a queued acknowledgment for a write command absorbed
// into the connection's pending batch. Replies must go out in command
// order, so write acks are held here and emitted right after the batch
// applies — before any later command's reply.
type pendingReply struct {
	kind byte // 'S': +OK, 'I': integer n
	n    int64
}

// conn serves one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *resp.Reader
	w   *resp.Writer

	// pending accumulates this connection's unapplied write commands; one
	// pipelined burst of SETs becomes one engine batch — a single commit-
	// pipeline entry — instead of a commit per command.
	pending    *batch.Batch
	pendingOps int64
	replies    []pendingReply

	nameBuf []byte // scratch for upper-casing the command name
	closing bool   // QUIT received or fatal error: exit after flushing
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		r:       resp.NewReader(nc),
		w:       resp.NewWriter(nc),
		pending: batch.New(),
	}
}

// serve is the connection loop: absorb pipelined commands while input is
// buffered, flush writes and responses when the burst drains, and exit on
// disconnect, idle timeout, QUIT, or server drain.
func (c *conn) serve() {
	defer func() {
		// Disconnect mid-pipeline loses the unapplied tail by design (the
		// client never saw acks for it); drop it rather than committing
		// writes nobody observed succeed.
		_ = c.nc.Close() // peer may already be gone; nothing to do with the error
		c.srv.remove(c)
	}()

	for !c.closing {
		if c.r.Buffered() == 0 {
			// Burst drained: make pending writes durable, emit their acks,
			// and push the whole response buffer in one write.
			if !c.flushWrites() {
				return
			}
			if !c.flushResponses() {
				return
			}
			// Order matters versus Shutdown: the deadline is armed before
			// draining is checked, and Shutdown sets draining before it
			// stamps every connection with an immediate deadline — so either
			// this check sees draining, or Shutdown's immediate deadline
			// lands after ours and the read below wakes at once.
			c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
			if c.srv.draining.Load() {
				return
			}
		}
		cmd, err := c.r.ReadCommand()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Idle timeout or Shutdown's wakeup nudge; either way the
				// connection parts cleanly (everything was flushed before
				// the blocking read).
				return
			}
			if errors.Is(err, resp.ErrProtocol) {
				c.srv.stats.protoErrors.Add(1)
				c.w.Error("ERR protocol error: " + err.Error())
				c.flushResponses()
			}
			return // disconnect, torn input, or unrecoverable framing
		}
		if len(cmd) == 0 {
			continue // blank inline line
		}
		start := time.Now()
		name := c.commandName(cmd[0])
		c.dispatch(name, cmd)
		c.srv.stats.observe(name, time.Since(start))
	}
	// QUIT: acknowledge everything, then close.
	if c.flushWrites() {
		c.flushResponses()
	}
}

// commandName lower-cases the command into a reused scratch buffer and
// returns the canonical constant for known commands, so steady-state
// dispatch allocates nothing (string(buf) inside a switch comparison does
// not escape).
func (c *conn) commandName(raw []byte) string {
	c.nameBuf = c.nameBuf[:0]
	for _, b := range raw {
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		c.nameBuf = append(c.nameBuf, b)
	}
	switch string(c.nameBuf) {
	case "set":
		return "set"
	case "get":
		return "get"
	case "del":
		return "del"
	case "mget":
		return "mget"
	case "mset":
		return "mset"
	case "scan":
		return "scan"
	case "ping":
		return "ping"
	case "echo":
		return "echo"
	case "info":
		return "info"
	case "dbsize":
		return "dbsize"
	case "quit":
		return "quit"
	case "command":
		return "command"
	case "config":
		return "config"
	case "select":
		return "select"
	case "count":
		return "count"
	}
	return string(c.nameBuf)
}

// flushWrites applies the pending write batch (if any) and emits the
// queued acks. Returns false when the connection should die: the engine
// refused the writes (poisoned or closed), so the client gets error
// replies for the batch and the connection closes.
func (c *conn) flushWrites() bool {
	if c.pending.Empty() {
		return true
	}
	start := time.Now()
	err := c.srv.db.Apply(c.pending)
	c.srv.stats.applyHist.Record(time.Since(start))
	c.srv.stats.applyBatches.Add(1)
	c.srv.stats.applyOps.Add(c.pendingOps)
	if err != nil {
		// The engine refused the batch (closed or poisoned): every queued
		// write gets an error reply, then the connection dies.
		for range c.replies {
			c.w.Error("ERR " + err.Error())
		}
		c.replies = c.replies[:0]
		c.pending.Reset()
		c.pendingOps = 0
		c.closing = true
		c.flushResponses()
		return false
	}
	for _, r := range c.replies {
		if r.kind == 'S' {
			c.w.SimpleString("OK")
		} else {
			c.w.Int(r.n)
		}
	}
	c.replies = c.replies[:0]
	c.pending.Reset()
	c.pendingOps = 0
	return true
}

// flushResponses writes the buffered replies to the socket under the write
// deadline. Returns false on write failure (dead client).
func (c *conn) flushResponses() bool {
	if c.w.Buffered() == 0 {
		return true
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	return c.w.Flush() == nil
}

// dispatch executes one command. A well-formed write command is absorbed
// into the pending batch with its ack queued; every other command — a
// malformed write and QUIT included — first forces the pending writes down
// (read-your-writes within a connection, and reply ordering) and then
// answers directly.
func (c *conn) dispatch(name string, cmd [][]byte) {
	if c.queueWrite(name, cmd) {
		return
	}
	if !c.flushWrites() {
		return
	}
	switch name {
	case "set", "del", "mset":
		c.argErr(name) // queueWrite takes every well-formed one
	case "get":
		if len(cmd) != 2 {
			c.argErr(name)
			return
		}
		val, err := c.srv.db.Get(cmd[1])
		switch {
		case err == nil:
			c.w.Bulk(val)
		case errors.Is(err, core.ErrNotFound):
			c.w.Bulk(nil)
		default:
			c.w.Error("ERR " + err.Error())
		}
	case "mget":
		if len(cmd) < 2 {
			c.argErr(name)
			return
		}
		c.cmdMGet(cmd[1:])
	case "scan":
		c.cmdScan(cmd)
	case "dbsize":
		n, err := c.dbSize()
		if err != nil {
			c.w.Error("ERR " + err.Error())
			return
		}
		c.w.Int(n)

	case "ping":
		if len(cmd) > 1 {
			c.w.Bulk(cmd[1])
		} else {
			c.w.SimpleString("PONG")
		}
	case "echo":
		if len(cmd) != 2 {
			c.argErr(name)
			return
		}
		c.w.Bulk(cmd[1])
	case "info":
		section := ""
		if len(cmd) > 1 {
			section = string(cmd[1])
		}
		c.w.BulkString(c.srv.renderInfo(section))
	case "quit":
		c.w.SimpleString("OK")
		c.closing = true
	case "command":
		// redis-cli probes COMMAND DOCS on connect; an empty array keeps it
		// happy without modeling the whole command table.
		c.w.Array(0)
	case "config":
		if len(cmd) >= 2 && c.commandName(cmd[1]) == "get" {
			c.w.Array(0)
		} else {
			c.w.Error("ERR CONFIG subcommand not supported")
		}
	case "select":
		if len(cmd) == 2 && string(cmd[1]) == "0" {
			c.w.SimpleString("OK")
		} else {
			c.w.Error("ERR DB index is out of range (single-database server)")
		}
	default:
		c.srv.stats.unknownCmds.Add(1)
		c.w.Error("ERR unknown command '" + string(cmd[0]) + "'")
	}
}

// queueWrite absorbs a well-formed SET, DEL or MSET into the pending batch
// and queues its ack, reporting whether it did.
func (c *conn) queueWrite(name string, cmd [][]byte) bool {
	switch {
	case name == "set" && len(cmd) == 3:
		c.pending.Set(cmd[1], cmd[2])
		c.pendingOps++
		c.replies = append(c.replies, pendingReply{kind: 'S'})
	case name == "del" && len(cmd) >= 2:
		for _, k := range cmd[1:] {
			c.pending.Delete(k)
		}
		c.pendingOps += int64(len(cmd) - 1)
		// Deviation from Redis: the engine writes tombstones blindly, so
		// DEL reports keys named, not keys that existed.
		c.replies = append(c.replies, pendingReply{kind: 'I', n: int64(len(cmd) - 1)})
	case name == "mset" && len(cmd) >= 3 && len(cmd)%2 == 1:
		for i := 1; i < len(cmd); i += 2 {
			c.pending.Set(cmd[i], cmd[i+1])
		}
		c.pendingOps += int64(len(cmd) / 2)
		c.replies = append(c.replies, pendingReply{kind: 'S'})
	default:
		return false
	}
	// Bound per-connection batch memory: an abusive pipeline of writes is
	// applied in slices of one commit group. Acks are still emitted in
	// order, so the client cannot tell the difference.
	if c.pending.Size() >= commit.MaxGroupBytes {
		c.flushWrites()
	}
	return true
}

// cmdMGet answers MGET, reading the keys in request order. Missing or
// unreadable keys read as null, per Redis.
func (c *conn) cmdMGet(keys [][]byte) {
	c.w.Array(len(keys))
	for _, k := range keys {
		if val, err := c.srv.db.Get(k); err == nil {
			c.w.Bulk(val)
		} else {
			c.w.Bulk(nil)
		}
	}
}

// cmdScan implements a cursor-style SCAN over the sorted keyspace:
//
//	SCAN <cursor> [COUNT n]
//
// Cursor "0" starts from the first key; the reply's cursor is the next
// start key, with "0" again meaning exhausted — the contract redis-cli
// --scan expects, mapped onto a sorted store (no MATCH support).
func (c *conn) cmdScan(cmd [][]byte) {
	if len(cmd) < 2 {
		c.argErr("scan")
		return
	}
	count := scanDefaultCount
	if len(cmd) > 2 {
		if len(cmd) != 4 || c.commandName(cmd[2]) != "count" {
			c.argErr("scan")
			return
		}
		n, err := strconv.Atoi(string(cmd[3]))
		if err != nil || n <= 0 {
			c.w.Error("ERR value is not an integer or out of range")
			return
		}
		count = min(n, math.MaxInt-1) // count+1 below must not overflow
	}
	var start []byte
	if string(cmd[1]) != "0" {
		start = cmd[1]
	}
	// Fetch one extra pair to learn whether the keyspace continues; the
	// extra key is the next cursor.
	pairs, err := c.srv.db.Scan(start, count+1)
	if err != nil {
		c.w.Error("ERR " + err.Error())
		return
	}
	next := []byte("0")
	if len(pairs) > count {
		next = pairs[count].Key
		pairs = pairs[:count]
	}
	c.w.Array(2)
	c.w.Bulk(next)
	c.w.Array(len(pairs))
	for _, kv := range pairs {
		c.w.Bulk(kv.Key)
	}
}

// dbSize counts live keys with a full iteration. O(keys) — priced like
// KEYS *, fine for operations, not for hot paths.
func (c *conn) dbSize() (int64, error) {
	it, err := c.srv.db.NewIterator(nil)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var n int64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	return n, it.Error()
}

func (c *conn) argErr(name string) {
	c.w.Error("ERR wrong number of arguments for '" + name + "' command")
}

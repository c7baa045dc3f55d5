package server

import (
	"errors"
	"math"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/resp"
)

// scanDefaultCount is SCAN's page size when no COUNT is given (Redis's
// default).
const scanDefaultCount = 10

// pendingReply is a queued acknowledgment for a write command absorbed
// into a segment. Replies must go out in command order, so write acks are
// held here and emitted once their segment is durable — before any later
// command's reply.
type pendingReply struct {
	kind byte // 'S': +OK, 'I': integer n
	n    int64
}

// owedReply is one entry of the connection's queue of owed replies, in
// command order: a submitted segment's acks, or a read's values.
type owedReply struct {
	seg   *core.Segment // the segment whose n acks these are; nil for a read
	n     int           // acks of the segment, or keys of the read
	name  string        // the read's command: "get", or "mget" (one array)
	start time.Time     // when the segment was submitted or the read dispatched
}

// pendingRead is one key of an owed read: the point it answers at and the
// key's end in conn.keyBuf, which holds the owed reads' keys back to back.
type pendingRead struct {
	point core.ReadPoint
	end   int
}

// maxOwed bounds a connection's owed replies (a segment's acks count once);
// past it, or past commit.MaxGroupBytes of submitted batches, the connection
// drains before it owes more.
const maxOwed = 32

// conn serves one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *resp.Reader
	w   *resp.Writer

	// open accumulates this connection's write commands since the last read;
	// a run of pipelined SETs becomes one engine batch — a single commit-
	// pipeline entry — instead of a commit per command. A read, the end of
	// the burst or a full batch submits it: it commits on while the
	// connection parses on.
	open     *core.Segment
	openAcks int
	acks     []pendingReply // the acks of the owed segments, then the open one's

	// The owed replies, paid in order by drain: reads answer at the read
	// points they took where they stood in the stream.
	owed          []owedReply
	reads         []pendingRead
	keyBuf        []byte
	inFlightBytes int // the owed segments' batches' bytes

	observed time.Time // when the last observed command's time ended

	nameBuf []byte // scratch for upper-casing the command name
	closing bool   // QUIT received or fatal error: exit after flushing
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv: s,
		nc:  nc,
		r:   resp.NewReader(nc),
		w:   resp.NewWriter(nc),
	}
}

// serve is the connection loop: absorb pipelined commands while input is
// buffered, settle writes and responses when the burst drains, and exit on
// disconnect, idle timeout, QUIT, or server drain.
func (c *conn) serve() {
	defer func() {
		// Disconnect mid-pipeline loses the unsubmitted tail by design (the
		// client never saw acks for it); drop it rather than committing
		// writes nobody observed succeed. Submitted segments commit anyway:
		// wait for them, so no commit outlives the connection.
		c.drain(false)
		_ = c.nc.Close() // peer may already be gone; nothing to do with the error
		c.srv.remove(c)
	}()

	for !c.closing {
		if c.r.Buffered() == 0 {
			// Burst drained: make its writes durable, answer everything
			// owed, and push the whole response buffer in one write.
			if !c.settle() {
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
				if c.drain(true) {
					c.w.Error("ERR protocol error: " + err.Error())
					c.flushResponses()
				}
			}
			return // disconnect, torn input, or unrecoverable framing
		}
		if len(cmd) == 0 {
			continue // blank inline line
		}
		start := time.Now()
		name := c.commandName(cmd[0])
		if !c.dispatch(name, cmd, start) {
			c.observe(name, start)
		}
	}
	// QUIT: acknowledge everything, then close.
	if c.settle() {
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

// submit ends the open segment: its batch starts committing, and once
// Submit returns — every shard it touches has assigned it a sequence range —
// its acks join the owed replies. Past the in-flight bounds the connection
// first drains what it owes. Returns false when the connection should die.
func (c *conn) submit() bool {
	if c.open == nil {
		return true
	}
	if len(c.owed) >= maxOwed || c.inFlightBytes >= commit.MaxGroupBytes {
		if !c.drain(true) {
			return false
		}
	}
	seg := c.open
	c.open = nil
	seg.Submit()
	c.srv.stats.applyBatches.Add(1)
	c.srv.stats.applyOps.Add(int64(seg.Batch().Count()))
	c.owed = append(c.owed, owedReply{seg: seg, n: c.openAcks, start: time.Now()})
	c.inFlightBytes += seg.Batch().Size()
	c.openAcks = 0
	return true
}

// settle submits the open segment and drains: every write so far is durable
// and every reply owed is in the response buffer.
func (c *conn) settle() bool { return c.submit() && c.drain(true) }

// drain pays the owed replies in order: a segment's acks once its commit
// returns, a read's values read at its points. When a segment fails — the
// engine refused it, poisoned or closed — its acks become error replies,
// nothing after them is answered, the later segments are waited for and the
// later points released, and the connection closes. With answer false
// nothing is answered at all: the connection is going away, and drain only
// waits for its segments and releases its points and its open segment.
// Reports whether the connection lives on.
func (c *conn) drain(answer bool) bool {
	var failed error
	acks, reads, keyStart := c.acks, c.reads, 0
	for _, o := range c.owed {
		if o.seg != nil {
			err := o.seg.Wait()
			segAcks := acks[:o.n]
			acks = acks[o.n:]
			if !answer || failed != nil {
				continue
			}
			c.srv.stats.applyHist.Record(time.Since(o.start))
			if err != nil {
				failed = err
				for range segAcks {
					c.w.Error("ERR " + err.Error())
				}
				continue
			}
			for _, r := range segAcks {
				if r.kind == 'S' {
					c.w.SimpleString("OK")
				} else {
					c.w.Int(r.n)
				}
			}
			continue
		}
		if answer && failed == nil && o.name == "mget" {
			c.w.Array(o.n)
		}
		for _, r := range reads[:o.n] {
			key := c.keyBuf[keyStart:r.end]
			keyStart = r.end
			if !answer || failed != nil {
				r.point.Release()
				continue
			}
			val, err := r.point.Read(key)
			c.readReply(o.name, val, err)
		}
		reads = reads[o.n:]
		if answer && failed == nil {
			c.observe(o.name, o.start)
		}
	}
	clear(c.owed) // drop the waited segments
	c.owed = c.owed[:0]
	clear(c.reads)
	c.reads = c.reads[:0]
	c.keyBuf = c.keyBuf[:0]
	c.acks = c.acks[:copy(c.acks, acks)] // the open segment's
	c.inFlightBytes = 0
	if answer && failed == nil {
		return true
	}
	if c.open != nil {
		_ = c.open.Wait() // never submitted: discards the batch
		c.open = nil
		c.openAcks = 0
		c.acks = c.acks[:0]
	}
	if answer {
		c.closing = true
		c.flushResponses()
	}
	return false
}

// observe records a command's time, from start until now, in the command
// statistics. An owed read's time starts at its dispatch, so it includes the
// wait for its read point, but the commands parsed after it and the replies
// paid before it ran in that window too. So each time starts no earlier than
// the end of the one observed before it: a connection's times never overlap,
// and their sum stays within the time the connection was busy.
func (c *conn) observe(name string, start time.Time) {
	now := time.Now()
	if start.Before(c.observed) {
		start = c.observed
	}
	c.srv.stats.observe(name, now.Sub(start))
	c.observed = now
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
// into the open segment with its ack queued; a well-formed GET or MGET
// submits the open segment and reads (read); every other command — a
// malformed write or read and QUIT included — first settles (its reply
// comes after every earlier one) and then answers directly. Reports whether
// the reply is owed, so the command's latency is observed when it is
// written.
func (c *conn) dispatch(name string, cmd [][]byte, start time.Time) (owed bool) {
	if c.queueWrite(name, cmd) {
		return false
	}
	if (name == "get" && len(cmd) == 2) || (name == "mget" && len(cmd) >= 2) {
		return c.read(name, cmd[1:], start)
	}
	if !c.settle() {
		return false
	}
	switch name {
	case "set", "del", "mset", "get", "mget":
		c.argErr(name) // queueWrite and read take every well-formed one
	case "scan":
		c.cmdScan(cmd)
	case "dbsize":
		n, err := c.dbSize()
		if err != nil {
			c.w.Error("ERR " + err.Error())
			return false
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
			return false
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
	return false
}

// read answers a GET (one key) or an MGET. It submits the open segment
// first. With nothing owed it reads the latest state and answers at once:
// every earlier write of the connection is acknowledged, so published.
// Otherwise it takes a read point per key where the read stands in the
// stream, after the connection's earlier writes and before its later ones,
// and owes the reply (see core.TakeReadPoint). Reports whether it did.
func (c *conn) read(name string, keys [][]byte, start time.Time) (owed bool) {
	if !c.submit() || (len(c.owed) >= maxOwed && !c.drain(true)) {
		return false
	}
	if len(c.owed) == 0 {
		if name == "mget" {
			c.w.Array(len(keys))
		}
		for _, k := range keys {
			val, err := core.ReadLatest(c.srv.db, k)
			c.readReply(name, val, err)
		}
		return false
	}
	for _, k := range keys {
		p := core.TakeReadPoint(c.srv.db, k)
		c.keyBuf = append(c.keyBuf, k...) // k aliases the reader's buffer
		c.reads = append(c.reads, pendingRead{point: p, end: len(c.keyBuf)})
	}
	c.owed = append(c.owed, owedReply{n: len(keys), name: name, start: start})
	return true
}

// readReply writes one value of a GET or an MGET: the value, which it copies
// into the reply buffer and nowhere else (val is the store's own, read-only),
// or a null for a missing key. A GET reports any other error; an MGET reads an
// unreadable key as null, per Redis.
func (c *conn) readReply(name string, val []byte, err error) {
	switch {
	case err == nil:
		c.w.Bulk(val)
	case name == "mget" || errors.Is(err, core.ErrNotFound):
		c.w.Bulk(nil)
	default:
		c.w.Error("ERR " + err.Error())
	}
}

// queueWrite absorbs a well-formed SET, DEL or MSET into the open segment
// and queues its ack, reporting whether it did.
func (c *conn) queueWrite(name string, cmd [][]byte) bool {
	switch {
	case name == "set" && len(cmd) == 3:
	case name == "del" && len(cmd) >= 2:
	case name == "mset" && len(cmd) >= 3 && len(cmd)%2 == 1:
	default:
		return false
	}
	if c.open == nil {
		c.open = core.NewSegment(c.srv.db)
	}
	b := c.open.Batch()
	switch name {
	case "del":
		for _, k := range cmd[1:] {
			b.Delete(k)
		}
		// Deviation from Redis: the engine writes tombstones blindly, so
		// DEL reports keys named, not keys that existed.
		c.acks = append(c.acks, pendingReply{kind: 'I', n: int64(len(cmd) - 1)})
	default:
		for i := 1; i < len(cmd); i += 2 {
			b.Set(cmd[i], cmd[i+1])
		}
		c.acks = append(c.acks, pendingReply{kind: 'S'})
	}
	c.openAcks++
	// Bound per-connection batch memory: an abusive pipeline of writes is
	// committed in slices of one commit group. Acks are still emitted in
	// order, so the client cannot tell the difference.
	if b.Size() >= commit.MaxGroupBytes {
		c.submit()
	}
	return true
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

// Package resp implements the subset of the RESP2 wire protocol (the Redis
// serialization protocol) that the serving layer speaks: command arrays of
// bulk strings on the request side, and the five RESP2 reply types (simple
// string, error, integer, bulk string, array) on the response side. Because
// the protocol is RESP2, stock Redis tooling — redis-cli, redis-benchmark —
// works against the server unmodified.
//
// The Reader is zero-copy: ReadCommand returns argument slices that alias
// the Reader's internal buffer and stay valid only until the next
// ReadCommand call. That is exactly the lifetime the server needs — keys
// and values are copied into a write batch or looked up before the next
// command is parsed — and it keeps steady-state request parsing free of
// per-argument allocations.
//
// The Writer buffers replies and writes them to the underlying connection
// only on Flush, so a pipelined burst of commands produces one response
// write per burst, mirroring how the server turns the burst into one write
// batch.
package resp

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits. Commands beyond these are malformed or hostile; the
// server closes the connection on ErrProtocol.
const (
	// MaxArgs bounds the number of arguments in one command.
	MaxArgs = 1 << 20
	// MaxBulkLen bounds one argument's size (64 MiB, comfortably above any
	// sane key or value).
	MaxBulkLen = 64 << 20
	// maxInline bounds an inline (telnet-style) command line.
	maxInline = 1 << 16
	// maxArrayPrealloc bounds the elements ReadReply allocates room for
	// before it has read them.
	maxArrayPrealloc = 1 << 10
)

// ErrProtocol reports malformed or oversized input; the connection is not
// recoverable past it.
var ErrProtocol = errors.New("resp: protocol error")

// Error is an error reply (the "-..." type). The client surfaces it as the
// command's error; the server writer emits it verbatim.
type Error string

func (e Error) Error() string { return string(e) }

// ---------------------------------------------------------------------------
// Reader

// Reader incrementally parses RESP values from a stream using its own
// buffer, so parsed slices can alias buffered bytes (bufio.Reader cannot
// expose that). The buffer is compacted only between commands, which is
// what keeps returned slices valid until the next ReadCommand.
type Reader struct {
	rd  io.Reader
	buf []byte
	r   int // next unread byte
	w   int // end of valid data

	args   [][]byte // reused result slice
	argPos [][2]int // arg offsets into buf, resolved after parsing completes
}

// NewReader wraps rd with a fresh parse buffer.
func NewReader(rd io.Reader) *Reader {
	return &Reader{rd: rd, buf: make([]byte, 0, 16<<10)}
}

// Buffered reports how many parsed-but-unconsumed bytes the Reader holds —
// non-zero exactly when more pipelined commands are already in memory. The
// server uses it to decide when a pipelined burst has drained (flush the
// pending batch and the reply buffer) versus when to keep absorbing.
func (r *Reader) Buffered() int { return r.w - r.r }

// fill reads more data from the underlying stream into buf[w:], growing the
// buffer if needed. Growth may move the backing array, which is why args are
// tracked as offsets until a command is fully parsed.
func (r *Reader) fill() error {
	if r.w == len(r.buf) {
		if cap(r.buf)-r.w < 512 {
			nbuf := make([]byte, r.w, 2*cap(r.buf)+512)
			copy(nbuf, r.buf[:r.w])
			r.buf = nbuf
		}
		r.buf = r.buf[:cap(r.buf)]
	}
	n, err := r.rd.Read(r.buf[r.w:])
	r.w += n
	r.buf = r.buf[:r.w]
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// compact drops consumed bytes. Called only at command boundaries so that
// slices handed out for the previous command are no longer live.
func (r *Reader) compact() {
	if r.r == 0 {
		return
	}
	n := copy(r.buf, r.buf[r.r:r.w])
	r.r, r.w = 0, n
	r.buf = r.buf[:n]
}

// readLine returns the offsets [start,end) of the next CRLF-terminated line
// (excluding the CRLF), filling as needed.
func (r *Reader) readLine() (start, end int, err error) {
	start = r.r
	for i := r.r; ; i++ {
		for i+1 >= r.w {
			if r.w-start > maxInline {
				return 0, 0, fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, maxInline)
			}
			if err := r.fill(); err != nil {
				return 0, 0, err
			}
		}
		if r.buf[i] == '\r' && r.buf[i+1] == '\n' {
			r.r = i + 2
			return start, i, nil
		}
	}
}

// parseInt parses the decimal in buf[start:end].
func (r *Reader) parseInt(start, end int) (int64, error) {
	n, err := strconv.ParseInt(string(r.buf[start:end]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad length %q", ErrProtocol, r.buf[start:end])
	}
	return n, nil
}

// ReadCommand parses one client command: either a RESP array of bulk
// strings (what every real client sends) or an inline whitespace-separated
// line (telnet convenience). The returned slices alias the Reader's buffer
// and are valid only until the next ReadCommand call. An empty inline line
// yields a zero-length command; callers skip it.
func (r *Reader) ReadCommand() ([][]byte, error) {
	r.compact()
	r.argPos = r.argPos[:0]

	// Peek the first byte to pick array vs inline framing.
	for r.r >= r.w {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	if r.buf[r.r] != '*' {
		return r.readInline()
	}

	start, end, err := r.readLine()
	if err != nil {
		return nil, err
	}
	n, err := r.parseInt(start+1, end)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArgs {
		return nil, fmt.Errorf("%w: %d args", ErrProtocol, n)
	}
	for i := int64(0); i < n; i++ {
		s, e, err := r.readLine()
		if err != nil {
			return nil, err
		}
		if e == s || r.buf[s] != '$' {
			return nil, fmt.Errorf("%w: expected bulk string", ErrProtocol)
		}
		blen, err := r.parseInt(s+1, e)
		if err != nil {
			return nil, err
		}
		if blen < 0 || blen > MaxBulkLen {
			return nil, fmt.Errorf("%w: bulk length %d", ErrProtocol, blen)
		}
		for int64(r.w-r.r) < blen+2 {
			if err := r.fill(); err != nil {
				return nil, err
			}
		}
		if r.buf[r.r+int(blen)] != '\r' || r.buf[r.r+int(blen)+1] != '\n' {
			return nil, fmt.Errorf("%w: bulk string missing CRLF", ErrProtocol)
		}
		r.argPos = append(r.argPos, [2]int{r.r, r.r + int(blen)})
		r.r += int(blen) + 2
	}
	return r.resolveArgs(), nil
}

// readInline parses a telnet-style command: one line, arguments separated
// by spaces or tabs (no quoting).
func (r *Reader) readInline() ([][]byte, error) {
	start, end, err := r.readLine()
	if err != nil {
		return nil, err
	}
	i := start
	for i < end {
		for i < end && (r.buf[i] == ' ' || r.buf[i] == '\t') {
			i++
		}
		j := i
		for j < end && r.buf[j] != ' ' && r.buf[j] != '\t' {
			j++
		}
		if j > i {
			r.argPos = append(r.argPos, [2]int{i, j})
		}
		i = j
	}
	return r.resolveArgs(), nil
}

// resolveArgs materializes the offset list into byte slices. Done last,
// after all fills, so growth cannot invalidate them.
func (r *Reader) resolveArgs() [][]byte {
	r.args = r.args[:0]
	for _, p := range r.argPos {
		r.args = append(r.args, r.buf[p[0]:p[1]:p[1]])
	}
	return r.args
}

// ---------------------------------------------------------------------------
// Reply reading (client side)

// ReadReply parses one server reply into a Go value:
//
//	simple string → string
//	error         → Error (returned as the value, not err)
//	integer       → int64
//	bulk string   → []byte (nil for the null bulk)
//	array         → []interface{} (nil for the null array)
//
// Unlike ReadCommand, the returned value does not alias the Reader's buffer
// — bulk payloads are copied — because clients hand replies to application
// code with unbounded lifetime. The status replies the server sends on every
// write and PING, "OK" and "PONG", come back as shared values boxed once
// (okReply, pongReply): a Go string is immutable, so sharing one is safe.
func (r *Reader) ReadReply() (interface{}, error) {
	r.compact()
	return r.readReplyValue()
}

// okReply and pongReply are boxed once: boxing a string allocates.
var okReply, pongReply interface{} = "OK", "PONG"

func (r *Reader) readReplyValue() (interface{}, error) {
	for r.r >= r.w {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	typ := r.buf[r.r]
	start, end, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if end == start {
		return nil, fmt.Errorf("%w: empty reply line", ErrProtocol)
	}
	line := r.buf[start+1 : end]
	switch typ {
	case '+':
		switch string(line) {
		case "OK":
			return okReply, nil
		case "PONG":
			return pongReply, nil
		}
		return string(line), nil
	case '-':
		return Error(string(line)), nil
	case ':':
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return n, nil
	case '$':
		blen, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if blen == -1 {
			return []byte(nil), nil
		}
		if blen < 0 || blen > MaxBulkLen {
			return nil, fmt.Errorf("%w: bulk length %d", ErrProtocol, blen)
		}
		for int64(r.w-r.r) < blen+2 {
			if err := r.fill(); err != nil {
				return nil, err
			}
		}
		out := append([]byte(nil), r.buf[r.r:r.r+int(blen)]...)
		r.r += int(blen) + 2
		return out, nil
	case '*':
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
		}
		if n == -1 {
			return []interface{}(nil), nil
		}
		if n < 0 || n > MaxArgs {
			return nil, fmt.Errorf("%w: array length %d", ErrProtocol, n)
		}
		// Capped: a hostile length prefix must not allocate ahead of the
		// elements that back it.
		out := make([]interface{}, 0, min(n, maxArrayPrealloc))
		for i := int64(0); i < n; i++ {
			v, err := r.readReplyValue()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown reply type %q", ErrProtocol, typ)
	}
}

// ---------------------------------------------------------------------------
// Writer

// Writer accumulates RESP replies in memory and writes them out on Flush.
// Methods never fail; the first underlying write error is latched and
// returned by Flush (and every later Flush), matching bufio's model. Not
// safe for concurrent use — each connection owns one.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter builds a reply writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 8<<10)}
}

// Buffered reports bytes queued but not yet flushed.
func (w *Writer) Buffered() int { return len(w.buf) }

// SimpleString queues "+s\r\n" (s must not contain CR/LF).
func (w *Writer) SimpleString(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
}

// Error queues "-msg\r\n" (msg must not contain CR/LF).
func (w *Writer) Error(msg string) {
	w.buf = append(w.buf, '-')
	w.buf = append(w.buf, msg...)
	w.buf = append(w.buf, '\r', '\n')
}

// Int queues ":n\r\n".
func (w *Writer) Int(n int64) {
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.buf = append(w.buf, '\r', '\n')
}

// Bulk queues a bulk string. A nil slice is written as the RESP null bulk
// ("$-1\r\n"), which clients read back as nil — the missing-key reply.
func (w *Writer) Bulk(b []byte) {
	if b == nil {
		w.buf = append(w.buf, '$', '-', '1', '\r', '\n')
		return
	}
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(b)), 10)
	w.buf = append(w.buf, '\r', '\n')
	w.buf = append(w.buf, b...)
	w.buf = append(w.buf, '\r', '\n')
}

// BulkString queues a non-nil bulk string from a Go string.
func (w *Writer) BulkString(s string) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(s)), 10)
	w.buf = append(w.buf, '\r', '\n')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '\r', '\n')
}

// Raw queues pre-encoded RESP bytes (e.g. from AppendCommand) verbatim.
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Array queues an array header for n following replies.
func (w *Writer) Array(n int) {
	w.buf = append(w.buf, '*')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.buf = append(w.buf, '\r', '\n')
}

// Flush writes the queued replies to the underlying stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		w.err = err
	}
	return err
}

// ---------------------------------------------------------------------------
// Command encoding (client side)

// AppendCommand appends the RESP encoding of one command (array of bulk
// strings) to dst and returns the extended slice. Arguments may be string,
// []byte, int, or int64.
func AppendCommand(dst []byte, args ...interface{}) ([]byte, error) {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		var b []byte
		switch v := a.(type) {
		case string:
			b = []byte(v)
		case []byte:
			b = v
		case int:
			b = strconv.AppendInt(nil, int64(v), 10)
		case int64:
			b = strconv.AppendInt(nil, v, 10)
		default:
			return nil, fmt.Errorf("resp: unsupported argument type %T", a)
		}
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(b)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, b...)
		dst = append(dst, '\r', '\n')
	}
	return dst, nil
}

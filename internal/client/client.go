// Package client is the Go client for the LDC server: a thin RESP2
// connection with explicit pipelining. Do issues one command per round
// trip; Pipeline queues many commands and flushes them in a single write,
// which the server turns into one engine batch per burst of writes — the
// intended high-throughput path.
//
// A Client is safe for concurrent use; commands and pipelines are
// serialized over the single connection. For connection-level parallelism
// open several clients.
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/invariants"
	"repro/internal/resp"
)

// ErrNil reports a missing key (the RESP null bulk reply).
var ErrNil = errors.New("client: nil reply")

// Client is one connection to the server.
type Client struct {
	mu invariants.Mutex
	nc net.Conn
	r  *resp.Reader
	w  *resp.Writer

	cmdBuf []byte // reused command encoding buffer
}

// Dial connects to a server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}
	c.mu.Rank("client.client.mu", 12)
	return c, nil
}

// Close tears the connection down. The socket is closed outside c.mu so a
// goroutine blocked in Do on a dead peer is unwedged rather than waited for;
// its pending read fails with "use of closed network connection".
func (c *Client) Close() error {
	c.mu.Lock()
	nc := c.nc
	c.mu.Unlock()
	return nc.Close()
}

// Do sends one command and returns its reply: string (simple status),
// int64, []byte (bulk; nil for missing), or []interface{} (array). A
// server error reply is returned as the error (type resp.Error); transport
// failures surface as ordinary errors.
func (c *Client) Do(args ...interface{}) (interface{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(args...); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.receive()
}

// send encodes one command into the connection's write buffer.
func (c *Client) send(args ...interface{}) error {
	var err error
	c.cmdBuf, err = resp.AppendCommand(c.cmdBuf[:0], args...)
	if err != nil {
		return err
	}
	c.w.Raw(c.cmdBuf)
	return nil
}

// receive reads one reply, converting a server error reply into err.
func (c *Client) receive() (interface{}, error) {
	v, err := c.r.ReadReply()
	if err != nil {
		return nil, err
	}
	if e, ok := v.(resp.Error); ok {
		return nil, e
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Typed conveniences

// Ping round-trips a PING.
func (c *Client) Ping() error {
	v, err := c.Do("PING")
	if err != nil {
		return err
	}
	if s, ok := v.(string); !ok || s != "PONG" {
		return fmt.Errorf("client: unexpected PING reply %v", v)
	}
	return nil
}

// Set stores key → value.
func (c *Client) Set(key, value []byte) error {
	_, err := c.Do("SET", key, value)
	return err
}

// Get fetches a key's value; ErrNil reports a missing key.
func (c *Client) Get(key []byte) ([]byte, error) {
	v, err := c.Do("GET", key)
	if err != nil {
		return nil, err
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("client: unexpected GET reply %T", v)
	}
	if b == nil {
		return nil, ErrNil
	}
	return b, nil
}

// Del deletes keys, returning the server's count.
func (c *Client) Del(keys ...[]byte) (int64, error) {
	args := make([]interface{}, 0, len(keys)+1)
	args = append(args, "DEL")
	for _, k := range keys {
		args = append(args, k)
	}
	v, err := c.Do(args...)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("client: unexpected DEL reply %T", v)
	}
	return n, nil
}

// MGet fetches several keys; missing keys yield nil entries.
func (c *Client) MGet(keys ...[]byte) ([][]byte, error) {
	args := make([]interface{}, 0, len(keys)+1)
	args = append(args, "MGET")
	for _, k := range keys {
		args = append(args, k)
	}
	v, err := c.Do(args...)
	if err != nil {
		return nil, err
	}
	arr, ok := v.([]interface{})
	if !ok {
		return nil, fmt.Errorf("client: unexpected MGET reply %T", v)
	}
	out := make([][]byte, len(arr))
	for i, e := range arr {
		out[i], _ = e.([]byte)
	}
	return out, nil
}

// Scan fetches one SCAN page: keys from cursor ("0" = start), plus the
// next cursor ("0" = exhausted).
func (c *Client) Scan(cursor []byte, count int) (next []byte, keys [][]byte, err error) {
	v, err := c.Do("SCAN", cursor, "COUNT", count)
	if err != nil {
		return nil, nil, err
	}
	arr, ok := v.([]interface{})
	if !ok || len(arr) != 2 {
		return nil, nil, fmt.Errorf("client: unexpected SCAN reply %v", v)
	}
	next, _ = arr[0].([]byte)
	page, _ := arr[1].([]interface{})
	keys = make([][]byte, 0, len(page))
	for _, e := range page {
		if k, ok := e.([]byte); ok {
			keys = append(keys, k)
		}
	}
	return next, keys, nil
}

// Info fetches the INFO text (optionally one section).
func (c *Client) Info(section string) (string, error) {
	var (
		v   interface{}
		err error
	)
	if section == "" {
		v, err = c.Do("INFO")
	} else {
		v, err = c.Do("INFO", section)
	}
	if err != nil {
		return "", err
	}
	b, ok := v.([]byte)
	if !ok {
		return "", fmt.Errorf("client: unexpected INFO reply %T", v)
	}
	return string(b), nil
}

// DBSize reports the number of live keys.
func (c *Client) DBSize() (int64, error) {
	v, err := c.Do("DBSIZE")
	if err != nil {
		return 0, err
	}
	n, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("client: unexpected DBSIZE reply %T", v)
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Pipeline

// Pipeline queues commands for one flush-and-read round trip. Build with
// Client.Pipeline, fill with Do, run with Exec. Not safe for concurrent
// use; the client connection is locked only inside Exec.
type Pipeline struct {
	c   *Client
	buf []byte
	n   int
	err error
}

// Pipeline starts an empty pipeline.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c}
}

// Do queues one command. Encoding errors are latched and surfaced by Exec.
func (p *Pipeline) Do(args ...interface{}) {
	if p.err != nil {
		return
	}
	p.buf, p.err = resp.AppendCommand(p.buf, args...)
	if p.err == nil {
		p.n++
	}
}

// Len reports the number of queued commands.
func (p *Pipeline) Len() int { return p.n }

// Exec writes every queued command in one burst and reads every reply.
// The replies slice is positional; server error replies appear as
// resp.Error values at their position (Exec's own error covers transport
// failures only). The pipeline is reset and reusable afterwards.
func (p *Pipeline) Exec() ([]interface{}, error) {
	if p.err != nil {
		err := p.err
		p.buf, p.n, p.err = p.buf[:0], 0, nil
		return nil, err
	}
	if p.n == 0 {
		return nil, nil
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Raw(p.buf)
	n := p.n
	p.buf, p.n = p.buf[:0], 0
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]interface{}, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.r.ReadReply()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

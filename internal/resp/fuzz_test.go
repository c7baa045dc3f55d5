package resp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzRESPReadCommand: ReadCommand over arbitrary bytes never panics, and
// every error it returns wraps ErrProtocol or is the source's io.EOF. Every
// command it accepts, re-encoded with AppendCommand, parses back to equal
// arguments.
func FuzzRESPReadCommand(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nvalue\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("SET k v\r\n\r\nGET\tk\r\n"))
	f.Add([]byte("*1\r\n$-1\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$10\r\nshort\r\n"))
	f.Add([]byte("*+1\r\n$+0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			args, err := r.ReadCommand()
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF {
					t.Fatalf("ReadCommand error %v is neither a protocol error nor the source's io.EOF", err)
				}
				return
			}
			enc := make([]interface{}, len(args))
			for i, a := range args {
				enc[i] = append([]byte(nil), a...)
			}
			wire, err := AppendCommand(nil, enc...)
			if err != nil {
				t.Fatal(err)
			}
			again, err := NewReader(bytes.NewReader(wire)).ReadCommand()
			if err != nil {
				t.Fatalf("re-encoded command %q does not parse: %v", wire, err)
			}
			if len(again) != len(args) {
				t.Fatalf("re-encoded command has %d args, accepted one %d", len(again), len(args))
			}
			for i := range args {
				if !bytes.Equal(again[i], args[i]) {
					t.Fatalf("arg %d: %q re-parsed as %q", i, args[i], again[i])
				}
			}
		}
	})
}

// FuzzRESPReadReply: ReadReply over arbitrary bytes never panics, and every
// error it returns wraps ErrProtocol or is the source's io.EOF. Every reply
// it accepts that the Writer can encode — status, error, integer, bulk (nil
// included), arrays and their nesting — encodes and decodes back equal; the
// seeds are the Writer's own encodings of each.
func FuzzRESPReadReply(f *testing.F) {
	for _, v := range []interface{}{
		"OK", "PONG", "a status", Error("ERR boom"), int64(0), int64(-42),
		[]byte("value"), []byte{}, []byte(nil), []interface{}{},
		[]interface{}{[]byte("k"), []byte(nil), int64(7), "OK", Error("ERR x"),
			[]interface{}{[]byte("nested"), []interface{}{}}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		writeReply(w, v)
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("*-1\r\n*2\r\n$1\r\na\r\n"))
	f.Add([]byte("$10\r\nshort\r\n"))
	f.Add([]byte(":x\r\n?\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			v, err := r.ReadReply()
			if err != nil {
				if !errors.Is(err, ErrProtocol) && err != io.EOF {
					t.Fatalf("ReadReply error %v is neither a protocol error nor the source's io.EOF", err)
				}
				return
			}
			if !encodable(v) {
				continue
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			writeReply(w, v)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewReader(&buf).ReadReply()
			if err != nil {
				t.Fatalf("re-encoded reply %q does not parse: %v", buf.Bytes(), err)
			}
			if !reflect.DeepEqual(again, v) {
				t.Fatalf("reply %#v re-parsed as %#v", v, again)
			}
		}
	})
}

// writeReply encodes a decoded reply with the Writer method for its type.
func writeReply(w *Writer, v interface{}) {
	switch v := v.(type) {
	case string:
		w.SimpleString(v)
	case Error:
		w.Error(string(v))
	case int64:
		w.Int(v)
	case []byte:
		w.Bulk(v)
	case []interface{}:
		w.Array(len(v))
		for _, e := range v {
			writeReply(w, e)
		}
	}
}

// encodable reports whether the Writer can encode v: anything but a null
// array, which the server never sends and the Writer has no method for.
func encodable(v interface{}) bool {
	a, ok := v.([]interface{})
	if !ok {
		return true
	}
	if a == nil {
		return false
	}
	for _, e := range a {
		if !encodable(e) {
			return false
		}
	}
	return true
}

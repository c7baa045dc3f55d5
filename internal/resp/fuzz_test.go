package resp

import (
	"bytes"
	"errors"
	"io"
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

// Package vlog is a hermetic stand-in for repro/internal/vlog; errclose
// matches it by the "/vlog"-suffix package-path rule.
package vlog

type Pointer struct {
	Segment uint64
	Offset  uint64
	Length  uint32
}

type Log struct{ n int }

func (l *Log) Close() error { return nil }

type Writer struct{ n int }

func (w *Writer) Append(key, value []byte) (Pointer, error) { return Pointer{}, nil }
func (w *Writer) Sync() error                               { return nil }
func (w *Writer) Close() error                              { return nil }

type Segment struct{ size int64 }

func (s *Segment) Close() error { return nil }

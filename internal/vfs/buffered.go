package vfs

// NewBuffered wraps a write-only file handle with a coalescing buffer, so
// the layer below (in particular the SSD simulator) sees large sequential
// writes instead of per-block or per-record ones — the effect the OS page
// cache and device write coalescing have on a real deployment. Its read-side
// counterpart is a table iterator on a compaction view (sstable.Reader.View),
// which fetches compaction inputs in runs of the same size (sstable.IOChunk).
// Sync and Close flush the buffer. ReadAt flushes first, then delegates, so the
// wrapper stays a correct File even if a caller mixes modes.
func NewBuffered(f File, size int) File {
	if size <= 0 {
		size = 64 << 10
	}
	return &bufferedFile{f: f, buf: make([]byte, 0, size)}
}

type bufferedFile struct {
	f   File
	buf []byte
}

func (b *bufferedFile) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := cap(b.buf) - len(b.buf)
		if n == 0 {
			if err := b.flush(); err != nil {
				return 0, err
			}
			n = cap(b.buf)
		}
		if n > len(p) {
			n = len(p)
		}
		b.buf = append(b.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (b *bufferedFile) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

func (b *bufferedFile) ReadAt(p []byte, off int64) (int, error) {
	if err := b.flush(); err != nil {
		return 0, err
	}
	return b.f.ReadAt(p, off)
}

func (b *bufferedFile) Sync() error {
	if err := b.flush(); err != nil {
		return err
	}
	return b.f.Sync()
}

func (b *bufferedFile) Close() error {
	err := b.flush()
	if cerr := b.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (b *bufferedFile) Size() (int64, error) {
	if err := b.flush(); err != nil {
		return 0, err
	}
	return b.f.Size()
}

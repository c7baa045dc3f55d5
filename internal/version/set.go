package version

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Set owns the current Version, the MANIFEST log, the file-number and
// sequence allocators, and per-file reference counts used to decide when a
// table file becomes obsolete. LogAndApply serializes itself internally, so
// a shard's flush and compaction workers may call it directly; reads of
// Current are safe from any goroutine.
type Set struct {
	fs   vfs.FS
	dir  string
	icmp keys.InternalComparer

	// logMu serializes LogAndApply invocations: MANIFEST records must land in
	// the same order versions are installed, and each edit must build on the
	// version produced by the previous one. Held across I/O, so it is separate
	// from mu (which protects in-memory state and is never held across I/O).
	logMu invariants.Mutex

	mu       invariants.Mutex
	current  *Version
	fileRefs map[uint64]int
	obsolete []uint64

	nextFileNum uint64
	// lastSeq is atomic, not mu-guarded: it is the one Set field on the
	// lock-free read path (every Get and snapshot loads the visible
	// sequence), so it must be readable without any mutex. Writers advance
	// it with a CAS-max so publication stays monotonic from any caller.
	lastSeq     atomic.Uint64
	logNum      uint64
	nextLinkSeq uint64

	compactPointers [NumLevels]keys.InternalKey

	manifest     *wal.Writer
	manifestFile vfs.File
	manifestNum  uint64

	// b and rec are LogAndApply's builder and MANIFEST record buffer, reused
	// from edit to edit under logMu (and by Recover before any edit).
	b   *builder
	rec []byte
}

// NewSet creates a Set rooted at dir. Call Create for a fresh database or
// Recover for an existing one before any other method.
func NewSet(fs vfs.FS, dir string, icmp keys.InternalComparer) *Set {
	s := &Set{
		fs:          fs,
		dir:         dir,
		icmp:        icmp,
		fileRefs:    map[uint64]int{},
		nextFileNum: 2,
		nextLinkSeq: 1,
		b:           newBuilder(icmp),
	}
	s.logMu.Rank("version.set.logMu", 40)
	s.mu.Rank("version.set.mu", 45)
	return s
}

// Current returns the current version with a reference held; callers must
// Unref it.
func (s *Set) Current() *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.current
	v.Ref()
	return v
}

// CurrentNoRef returns the current version without touching refcounts; only
// for transient inspection of its immutable metadata (file lists, sizes)
// within the calling function. The returned version must NOT be retained,
// and in particular must never be Ref()'d afterwards: LogAndApply may
// concurrently install a successor and drop this version to zero refs, so a
// late Ref would resurrect it and double-release its file references on the
// final Unref. Callers that keep the version must use Current instead.
func (s *Set) CurrentNoRef() *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// NewFileNum allocates a file number.
func (s *Set) NewFileNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nextFileNum
	s.nextFileNum++
	return n
}

// NewLinkSeq allocates an LDC link sequence number.
func (s *Set) NewLinkSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nextLinkSeq
	s.nextLinkSeq++
	return n
}

// LastSeq returns the newest committed write sequence. Lock-free: this is
// on the hot read path.
func (s *Set) LastSeq() keys.Seq {
	return keys.Seq(s.lastSeq.Load())
}

// SetLastSeq publishes a newer committed sequence (monotonic CAS-max).
func (s *Set) SetLastSeq(seq keys.Seq) {
	for {
		cur := s.lastSeq.Load()
		if uint64(seq) <= cur || s.lastSeq.CompareAndSwap(cur, uint64(seq)) {
			return
		}
	}
}

// LogNum returns the WAL number covered by the current version.
func (s *Set) LogNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logNum
}

// CompactPointer returns the round-robin cursor for a level.
func (s *Set) CompactPointer(level int) keys.InternalKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactPointers[level]
}

// Create initializes a brand-new database: an empty version, a MANIFEST
// with a snapshot record, and CURRENT pointing at it.
func (s *Set) Create() error {
	if err := s.fs.MkdirAll(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.current = &Version{icmp: s.icmp, Frozen: map[uint64]*FrozenMeta{}, set: s}
	s.current.Ref()
	s.mu.Unlock()
	return s.writeNewManifest()
}

// Recover loads the database state from CURRENT + MANIFEST.
func (s *Set) Recover() error {
	cur, err := s.readCurrent()
	if err != nil {
		return err
	}
	mf, err := s.fs.Open(cur)
	if err != nil {
		return fmt.Errorf("version: open manifest %s: %w", cur, err)
	}
	defer mf.Close()

	base := &Version{icmp: s.icmp, Frozen: map[uint64]*FrozenMeta{}}
	r := wal.NewReader(mf)
	var sawComparer bool
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("version: manifest replay: %w", err)
		}
		e, err := DecodeEdit(rec)
		if err != nil {
			return err
		}
		if e.ComparerName != "" {
			sawComparer = true
			if e.ComparerName != s.icmp.User.Name() {
				return fmt.Errorf("version: database uses comparer %q, opened with %q",
					e.ComparerName, s.icmp.User.Name())
			}
		}
		s.b.reset(base)
		s.b.apply(e)
		if base, err = s.b.finish(); err != nil {
			return fmt.Errorf("version: manifest describes an invalid version: %w", err)
		}
		s.applyAllocators(e)
	}
	if !sawComparer {
		return errors.New("version: manifest missing comparer record")
	}

	s.mu.Lock()
	base.set = s
	s.current = base
	s.current.Ref()
	base.eachFileNum(func(num uint64) { s.fileRefs[num]++ })
	s.mu.Unlock()

	// Continue in a fresh MANIFEST so the old one can be dropped.
	if err := s.writeNewManifest(); err != nil {
		return err
	}
	return s.fs.Remove(cur)
}

func (s *Set) applyAllocators(e *Edit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.hasNextFileNum && e.NextFileNum > s.nextFileNum {
		s.nextFileNum = e.NextFileNum
	}
	if e.hasLastSeq {
		s.SetLastSeq(e.LastSeq)
	}
	if e.hasLogNum && e.LogNum > s.logNum {
		s.logNum = e.LogNum
	}
	if e.hasNextLinkSeq && e.NextLinkSeq > s.nextLinkSeq {
		s.nextLinkSeq = e.NextLinkSeq
	}
	for _, cp := range e.CompactPointers {
		s.compactPointers[cp.Level] = cp.Key
	}
}

func (s *Set) readCurrent() (string, error) {
	f, err := s.fs.Open(CurrentFileName(s.dir))
	if err != nil {
		return "", fmt.Errorf("version: read CURRENT: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return "", err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return "", err
	}
	name := string(buf)
	for len(name) > 0 && (name[len(name)-1] == '\n' || name[len(name)-1] == '\r') {
		name = name[:len(name)-1]
	}
	if name == "" {
		return "", errors.New("version: CURRENT is empty")
	}
	return s.dir + "/" + name, nil
}

// writeNewManifest starts a fresh MANIFEST containing a full snapshot of
// current state and atomically points CURRENT at it.
func (s *Set) writeNewManifest() error {
	num := s.NewFileNum()
	name := ManifestFileName(s.dir, num)
	f, err := s.fs.Create(name)
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	if err := w.AddRecord(s.snapshotEdit().Encode()); err != nil {
		_ = f.Close() // abandoning the half-written manifest
		return err
	}
	if err := w.Sync(); err != nil {
		_ = f.Close() // abandoning the half-written manifest
		return err
	}

	// Point CURRENT at the new manifest via an atomic rename.
	tmp := TempFileName(s.dir, num)
	tf, err := s.fs.Create(tmp)
	if err != nil {
		_ = f.Close()
		return err
	}
	if _, err := tf.Write([]byte(fmt.Sprintf("MANIFEST-%06d\n", num))); err != nil {
		_ = tf.Close()
		_ = f.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		_ = f.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		_ = f.Close()
		return err
	}
	if err := s.fs.Rename(tmp, CurrentFileName(s.dir)); err != nil {
		_ = f.Close()
		return err
	}

	// Install the new manifest under s.mu, but do the old handle's Close and
	// unlink outside it: s.mu guards state used by the read path and must
	// never be held across filesystem calls.
	s.mu.Lock()
	oldFile := s.manifestFile
	oldNum := s.manifestNum
	s.manifest = w
	s.manifestFile = f
	s.manifestNum = num
	s.mu.Unlock()
	if oldFile != nil {
		_ = oldFile.Close() // superseded manifest; already replaced durably
		_ = s.fs.Remove(ManifestFileName(s.dir, oldNum))
	}
	return nil
}

// snapshotEdit captures complete current state as one edit.
func (s *Set) snapshotEdit() *Edit {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &Edit{ComparerName: s.icmp.User.Name()}
	e.SetNextFileNum(s.nextFileNum)
	e.SetLastSeq(keys.Seq(s.lastSeq.Load()))
	e.SetLogNum(s.logNum)
	e.SetNextLinkSeq(s.nextLinkSeq)
	for level, key := range s.compactPointers {
		if key != nil {
			e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: level, Key: key})
		}
	}
	if s.current != nil {
		for level := 0; level < NumLevels; level++ {
			for _, f := range s.current.Levels[level] {
				e.AddFile(level, f)
			}
		}
		for _, fm := range s.current.Frozen {
			e.FreezeFile(fm)
		}
	}
	return e
}

// LogAndApply persists edit to the MANIFEST and installs the resulting
// version as current. Invocations are serialized internally; a shard's flush
// and compaction workers invoke it without extra locking, and their edits are
// compatible because a flush only adds L0 tables.
func (s *Set) LogAndApply(e *Edit) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()

	s.mu.Lock()
	e.SetNextFileNum(s.nextFileNum)
	e.SetLastSeq(keys.Seq(s.lastSeq.Load()))
	e.SetNextLinkSeq(s.nextLinkSeq)
	if !e.hasLogNum {
		e.SetLogNum(s.logNum)
	}
	base := s.current
	s.mu.Unlock()

	s.b.reset(base)
	s.b.apply(e)
	nv, err := s.b.finish()
	if err != nil {
		return fmt.Errorf("version: edit produces invalid version: %w", err)
	}
	nv.set = s

	s.rec = e.AppendEncoded(s.rec[:0])
	if err := s.manifest.AddRecord(s.rec); err != nil {
		return err
	}
	// logMu is held across the MANIFEST fsync by design: it exists precisely
	// to serialize manifest writes, it is never taken on the read or write
	// hot paths, and releasing it mid-apply would let a concurrent edit
	// observe a version that is installed but not yet durable.
	//ldclint:ignore mutexio logMu serializes MANIFEST I/O by design; it is not a hot-path lock
	if err := s.manifest.Sync(); err != nil {
		return err
	}

	s.mu.Lock()
	for _, cp := range e.CompactPointers {
		s.compactPointers[cp.Level] = cp.Key
	}
	if e.hasLogNum && e.LogNum > s.logNum {
		s.logNum = e.LogNum
	}
	// Acquire refs for the new version's files before dropping the old's.
	nv.eachFileNum(func(num uint64) { s.fileRefs[num]++ })
	old := s.current
	s.current = nv
	nv.Ref()
	s.mu.Unlock()

	if old != nil {
		old.Unref()
	}
	return nil
}

// releaseVersionFiles is called when a version's refcount reaches zero.
func (s *Set) releaseVersionFiles(v *Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v.eachFileNum(func(num uint64) {
		s.fileRefs[num]--
		if s.fileRefs[num] == 0 {
			delete(s.fileRefs, num)
			s.obsolete = append(s.obsolete, num)
		} else if s.fileRefs[num] < 0 {
			panic(fmt.Sprintf("version: file %06d refcount below zero", num))
		}
	})
}

// TakeObsolete returns and clears the list of table files no longer
// referenced by any version; the DB deletes them.
func (s *Set) TakeObsolete() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.obsolete
	s.obsolete = nil
	return out
}

// LiveFileNums reports every table file referenced by any live version.
func (s *Set) LiveFileNums() map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]bool, len(s.fileRefs))
	for num := range s.fileRefs {
		out[num] = true
	}
	return out
}

// Close releases the MANIFEST handle. The handle is detached under s.mu and
// closed outside it, keeping filesystem calls out of the lock.
func (s *Set) Close() error {
	s.mu.Lock()
	f := s.manifestFile
	s.manifestFile = nil
	s.mu.Unlock()
	if f != nil {
		return f.Close()
	}
	return nil
}

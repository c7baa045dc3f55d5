package version

import (
	"path/filepath"
	"strconv"
	"strings"
)

// FileType classifies database files by name.
type FileType int

// Database file types.
const (
	TypeUnknown FileType = iota
	TypeTable
	TypeManifest
	TypeCurrent
	TypeTemp
	TypeLog
)

// TableFileName returns the path of table file num.
func TableFileName(dir string, num uint64) string {
	return numberedPath(dir, "", num, ".sst")
}

// LogFileName returns the path of WAL file num.
func LogFileName(dir string, num uint64) string {
	return numberedPath(dir, "", num, ".log")
}

// ManifestFileName returns the path of MANIFEST file num.
func ManifestFileName(dir string, num uint64) string {
	return numberedPath(dir, "MANIFEST-", num, "")
}

// CurrentFileName returns the path of the CURRENT pointer file.
func CurrentFileName(dir string) string {
	return filepath.Join(dir, "CURRENT")
}

// TempFileName returns a scratch path for atomic replacement of CURRENT.
func TempFileName(dir string, num uint64) string {
	return numberedPath(dir, "", num, ".tmp")
}

// numberedPath returns filepath.Join(dir, name) for the file name
// prefix NNNNNN suffix, num padded to six digits as "%06d" would print it. A
// table, a log or a MANIFEST is named on every job, so the path is built in
// one allocation; a dir that filepath.Join would clean takes the general
// route.
func numberedPath(dir, prefix string, num uint64, suffix string) string {
	var numBuf [20]byte
	digits := strconv.AppendUint(numBuf[:0], num, 10)
	pad := max(0, 6-len(digits))
	join := dir != "" && dir != "." && dir[len(dir)-1] != filepath.Separator && filepath.Clean(dir) == dir

	var b strings.Builder
	b.Grow(len(dir) + 1 + len(prefix) + pad + len(digits) + len(suffix))
	if join {
		b.WriteString(dir)
		b.WriteByte(filepath.Separator)
	}
	b.WriteString(prefix)
	b.WriteString("000000"[:pad])
	b.Write(digits)
	b.WriteString(suffix)
	if !join {
		return filepath.Join(dir, b.String())
	}
	return b.String()
}

// ParseFileName classifies a bare file name in a shard's directory,
// returning its type and number (when the type carries one).
func ParseFileName(name string) (FileType, uint64) {
	switch {
	case name == "CURRENT":
		return TypeCurrent, 0
	case strings.HasPrefix(name, "MANIFEST-"):
		n, err := strconv.ParseUint(name[len("MANIFEST-"):], 10, 64)
		if err != nil {
			return TypeUnknown, 0
		}
		return TypeManifest, n
	case strings.HasSuffix(name, ".sst"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil {
			return TypeUnknown, 0
		}
		return TypeTable, n
	case strings.HasSuffix(name, ".log"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
		if err != nil {
			return TypeUnknown, 0
		}
		return TypeLog, n
	case strings.HasSuffix(name, ".tmp"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".tmp"), 10, 64)
		if err != nil {
			return TypeUnknown, 0
		}
		return TypeTemp, n
	}
	return TypeUnknown, 0
}

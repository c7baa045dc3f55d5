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
)

// TableFileName returns the path of table file num.
func TableFileName(dir string, num uint64) string {
	return numberedPath(dir, "", -1, num, ".sst")
}

// ManifestFileName returns the path of MANIFEST file num.
func ManifestFileName(dir string, num uint64) string {
	return numberedPath(dir, "MANIFEST-", -1, num, "")
}

// CurrentFileName returns the path of the CURRENT pointer file.
func CurrentFileName(dir string) string {
	return filepath.Join(dir, "CURRENT")
}

// TempFileName returns a scratch path for atomic replacement of CURRENT.
func TempFileName(dir string, num uint64) string {
	return numberedPath(dir, "", -1, num, ".tmp")
}

// numberedPath returns filepath.Join(dir, name) for the file name
// prefix[shard-]NNNNNN suffix, where the shard number (left out when
// negative) is unpadded and num is padded to six digits, as "%d-%06d" would
// print them. A table, a log or a MANIFEST is named on every job, so the path
// is built in one allocation; a dir that filepath.Join would clean takes the
// general route.
func numberedPath(dir, prefix string, shard int, num uint64, suffix string) string {
	var shardBuf, numBuf [20]byte
	var sh []byte
	if shard >= 0 {
		sh = strconv.AppendInt(shardBuf[:0], int64(shard), 10)
	}
	digits := strconv.AppendUint(numBuf[:0], num, 10)
	pad := max(0, 6-len(digits))
	join := dir != "" && dir != "." && dir[len(dir)-1] != filepath.Separator && filepath.Clean(dir) == dir

	var b strings.Builder
	b.Grow(len(dir) + 1 + len(prefix) + len(sh) + 1 + pad + len(digits) + len(suffix))
	if join {
		b.WriteString(dir)
		b.WriteByte(filepath.Separator)
	}
	b.WriteString(prefix)
	if sh != nil {
		b.Write(sh)
		b.WriteByte('-')
	}
	b.WriteString("000000"[:pad])
	b.Write(digits)
	b.WriteString(suffix)
	if !join {
		return filepath.Join(dir, b.String())
	}
	return b.String()
}

// ParseFileName classifies a bare file name in a shard's directory,
// returning its type and number (when the type carries one). WAL segments
// live in the shared WAL directory and parse with ParseShardLogName.
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
	case strings.HasSuffix(name, ".tmp"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".tmp"), 10, 64)
		if err != nil {
			return TypeUnknown, 0
		}
		return TypeTemp, n
	}
	return TypeUnknown, 0
}

// ShardLogFileName returns the path of shard sh's WAL file num inside the
// database's shared WAL directory (dir/wal). Per-shard WAL segments live
// side by side in one directory, so crash recovery can enumerate every
// shard's log tail with a single listing and route each segment to its
// shard by name.
func ShardLogFileName(dir string, sh int, num uint64) string {
	return numberedPath(dir, "SHARD-", sh, num, ".log")
}

// ParseShardLogName parses a bare "SHARD-<shard>-<num>.log" name produced
// by ShardLogFileName, reporting ok=false for anything else.
func ParseShardLogName(name string) (sh int, num uint64, ok bool) {
	if !strings.HasPrefix(name, "SHARD-") || !strings.HasSuffix(name, ".log") {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "SHARD-"), ".log")
	i := strings.IndexByte(body, '-')
	if i <= 0 {
		return 0, 0, false
	}
	s, err := strconv.Atoi(body[:i])
	if err != nil || s < 0 {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(body[i+1:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return s, n, true
}

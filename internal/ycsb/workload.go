package ycsb

import "fmt"

// OpKind is one of the benchmark's request types.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpScan
)

// Distribution selects the key popularity model.
type Distribution struct {
	// Kind is "uniform" or "zipfian".
	Kind string
	// Theta is the Zipf constant (used when Kind == "zipfian").
	Theta float64
}

// Uniform is the paper's default distribution.
var Uniform = Distribution{Kind: "uniform"}

// Zipf returns a zipfian distribution with the given constant, as swept in
// the paper's Fig 11 (constants 1, 2, 5).
func Zipf(theta float64) Distribution {
	return Distribution{Kind: "zipfian", Theta: theta}
}

// Workload mirrors the paper's Table III: a mix of random writes with point
// lookups or range scans over a key space.
type Workload struct {
	// Name as the paper labels it (WO, WH, RWB, RH, RO, SCN-*).
	Name string
	// WriteRatio is the fraction of write (insert/update) requests.
	WriteRatio float64
	// ScanQueries replaces point lookups with range scans (the SCN-*
	// workloads).
	ScanQueries bool
	// ScanLength is pairs per scan (paper: 100).
	ScanLength int
	// Dist selects key popularity.
	Dist Distribution
	// KeySpace is the number of distinct keys.
	KeySpace int64
	// ValueSize is the value payload (paper: 1 KiB).
	ValueSize int
	// Compressibility is the fraction of each value that is redundant
	// (0 = pure random bytes, the paper's incompressible default; see
	// CompressibleValue). Used by the on-disk-format benchmarks.
	Compressibility float64
	// Ops is the total request count.
	Ops int64
	// Preload inserts this many keys before measuring (0 = KeySpace/2,
	// the YCSB load phase).
	Preload int64
}

func (w Workload) withDefaults() Workload {
	if w.ScanLength <= 0 {
		w.ScanLength = 100
	}
	if w.Dist.Kind == "" {
		w.Dist = Uniform
	}
	if w.KeySpace <= 0 {
		w.KeySpace = 100000
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 1024
	}
	if w.Ops <= 0 {
		w.Ops = w.KeySpace
	}
	if w.Preload == 0 {
		w.Preload = w.KeySpace / 2
	}
	return w
}

// value renders the payload for item i under the workload's value model.
func (w Workload) value(i int64) []byte {
	if w.Compressibility > 0 {
		return CompressibleValue(i, w.ValueSize, w.Compressibility)
	}
	return Value(i, w.ValueSize)
}

// String names the workload.
func (w Workload) String() string {
	return fmt.Sprintf("%s(w=%.0f%%,%s,ops=%d)", w.Name, w.WriteRatio*100, w.Dist.Kind, w.Ops)
}

// The paper's Table III workloads, parameterized by total request count and
// key space. Point-lookup family:

// WO is write-only (100% writes).
func WO(ops, keySpace int64) Workload {
	return Workload{Name: "WO", WriteRatio: 1.0, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// WH is write-heavy (70% writes, 30% point lookups).
func WH(ops, keySpace int64) Workload {
	return Workload{Name: "WH", WriteRatio: 0.7, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// RWB is read/write balanced (50/50).
func RWB(ops, keySpace int64) Workload {
	return Workload{Name: "RWB", WriteRatio: 0.5, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// RH is read-heavy (30% writes, 70% point lookups).
func RH(ops, keySpace int64) Workload {
	return Workload{Name: "RH", WriteRatio: 0.3, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// RO is read-only.
func RO(ops, keySpace int64) Workload {
	return Workload{Name: "RO", WriteRatio: 0.0, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// Range-scan family (SCAN covers 100 pairs on average):

// ScnWH is write-heavy with range queries.
func ScnWH(ops, keySpace int64) Workload {
	return Workload{Name: "SCN-WH", WriteRatio: 0.7, ScanQueries: true, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// ScnRWB is balanced with range queries.
func ScnRWB(ops, keySpace int64) Workload {
	return Workload{Name: "SCN-RWB", WriteRatio: 0.5, ScanQueries: true, Ops: ops, KeySpace: keySpace}.withDefaults()
}

// ScnRH is read-heavy with range queries.
func ScnRH(ops, keySpace int64) Workload {
	return Workload{Name: "SCN-RH", WriteRatio: 0.3, ScanQueries: true, Ops: ops, KeySpace: keySpace}.withDefaults()
}

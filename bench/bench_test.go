package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) (manifest, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m, raw
}

// BENCHMARK.json is printed from the tables in metrics.go and workloads.go;
// the committed file must be that print, and must sit inside the driver's
// limits.
func TestManifestMatchesTables(t *testing.T) {
	m, raw := readManifest(t)
	if want := manifestJSON(m.RunSeconds); !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json is not what the tables print; regenerate it with\n\tbash bench/run.sh -manifest -seconds %d > BENCHMARK.json", m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit, l.Better)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d out of range", m.RunSeconds, len(raw))
	}
}

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload at 1/100 scale, traced: correct, emits exactly the declared
// metric names, and honours the bypass predictions the README states.
func TestWorkloadsAtSmokeScale(t *testing.T) {
	m, _ := readManifest(t)
	var wantE2E, wantLayer []string
	for _, e := range m.EndToEnd {
		wantE2E = append(wantE2E, e.Name)
	}
	for _, l := range m.PerLayer {
		wantLayer = append(wantLayer, l.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}

	zero := map[string][]string{
		"read_hot": {"compaction.merges", "compaction.links", "memtable.flushes", "wal.syncs", "commit.groups",
			"ssdsim.compaction_write_bytes", "ssdsim.flush_write_bytes", "ssdsim.wal_write_bytes", "vfs.sst_write_bytes"},
		"fill_wo":   {"cache.hits", "cache.misses", "vlog.appended_bytes", "bloom.probes", "ssdsim.user_read_ops"},
		"mixed_rwb": {"vlog.appended_bytes", "wal.syncs"},
	}
	for _, embedded := range []string{"fill_wo", "mixed_rwb", "read_hot"} {
		zero[embedded] = append(zero[embedded], "server.applies_per_burst", "server.set_p50_us", "vlog.separated_values",
			"vfs.vlog_write_bytes", "vfs.wal_syncs", "vfs.vlog_syncs", "client.wire_share")
	}
	positive := map[string][]string{
		"fill_wo":        {"memtable.flushes", "ssdsim.wal_write_bytes", "ssdsim.flush_write_bytes", "vfs.sst_write_bytes", "commit.groups"},
		"mixed_rwb":      {"cache.misses", "bloom.probes", "iterator.scan_ns_per_pair", "ssdsim.user_read_ops"},
		"read_hot":       {"cache.hits", "cache.hit_ratio"},
		"served_durable": {"server.applies_per_burst", "wal.syncs", "vfs.wal_syncs", "vfs.vlog_syncs", "vlog.separated_values", "server.set_p50_us", "client.wire_share"},
	}

	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the bench", i, m.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(options{workload: w.name, seed: 1, seconds: m.RunSeconds, trace: 1, scale: 0.01, outDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < res.Env.Ops {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			e2e := res.contractLine(false)["metrics"].(map[string]map[string]any)
			layers := res.contractLine(true)["metrics"].(map[string]map[string]any)
			for kind, pair := range map[string][2][]string{
				"end-to-end": {wantE2E, names(e2e)}, "per-layer": {wantLayer, names(layers)},
			} {
				if a, b := pair[0], pair[1]; !slices.Equal(a, b) {
					t.Errorf("%s names emitted differ from BENCHMARK.json:\n declared %v\n emitted  %v", kind, a, b)
				}
			}
			for n, x := range e2e {
				if v := x["value"].(float64); !(v > 0) {
					t.Errorf("end-to-end %s = %v: every workload must report every metric, and none may be 0", n, v)
				}
			}
			for _, n := range zero[w.name] {
				if v := res.PerLayer[n].Value; v != 0 {
					t.Errorf("%s = %v, predicted exactly 0 on %s", n, v, w.name)
				}
			}
			for _, n := range positive[w.name] {
				if v := res.PerLayer[n].Value; !(v > 0) {
					t.Errorf("%s = %v, predicted live on %s", n, v, w.name)
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestOracleCatchesAWrongByte(t *testing.T) {
	o := &oracle{ver: make([]uint32, 4), size: fixedSize(100)}
	o.ver[2] = 3
	good := bytes.Clone(o.value(2, 3))
	bad := bytes.Clone(good)
	bad[57] ^= 1
	for _, c := range []struct {
		idx     int64
		got     []byte
		present bool
		full    bool
		want    bool
	}{
		{2, good, true, true, true},
		{2, bad, true, true, false},
		{2, bad, true, false, true}, // the cheap check sees only the length
		{2, good[:99], true, false, false},
		{2, nil, false, true, false}, // lost key
		{1, nil, false, true, true},  // never written
		{1, good, true, true, false}, // resurrected key
	} {
		if got := o.matches(c.idx, c.got, c.present, c.full); got != c.want {
			t.Errorf("matches(%d, len %d, present %v, full %v) = %v, want %v", c.idx, len(c.got), c.present, c.full, got, c.want)
		}
	}
	if stale := o.value(2, 2); bytes.Equal(stale, good) {
		t.Error("versions 2 and 3 of a key have the same value: a stale read would pass")
	}
	if n := o.liveBytes(); n != keyLen+100 {
		t.Errorf("liveBytes = %d", n)
	}
}

func TestStreamIsDeterministicAndOwnsItsParity(t *testing.T) {
	w := findWorkload("served_durable") // two clients
	a, b := newStream(w, 7, 1, 1000), newStream(w, 7, 1, 1000)
	other := newStream(w, 8, 1, 1000)
	same := true
	for i := 0; i < 500; i++ {
		ka, ia := a.next()
		kb, ib := b.next()
		_, io := other.next()
		if ka != kb || ia != ib {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		if ia%2 != 1 || ia < 0 || ia >= 1000 {
			t.Fatalf("client 1 of 2 drew key index %d", ia)
		}
		same = same && ia == io
	}
	if same {
		t.Error("seeds 7 and 8 gave the same key sequence")
	}
	seen := map[int64]bool{}
	preloadOrder(1000, 7, func(idx int64) { seen[idx] = true })
	if len(seen) != 1000 {
		t.Errorf("preloadOrder visited %d of 1000 indexes", len(seen))
	}
}

// A stretch of the run that the host slows down must not move the sliced
// readings: the median while under half the slices are hit, the lower decile
// (read_hot's) until nine in ten are.
func TestSlicedReadingsIgnoreADisturbedStretch(t *testing.T) {
	const sliceLen, slices = 100, 50
	fold := func(slowFrom int) *pass {
		p := &pass{}
		cs := &clientState{}
		for i := range cs.lat {
			cs.lat[i] = newSamples(0)
		}
		var t0 time.Time
		at := t0
		for s := 0; s < slices; s++ {
			per := 10 * time.Microsecond // one op, of which 4 us inside the call
			if s >= slowFrom {
				per *= 3
			}
			for i := 0; i < sliceLen; i++ {
				cs.lat[latGet].add(per * 4 / 10)
				at = at.Add(per)
			}
			cs.mark(at.Add(-per), per, t0)
		}
		p.foldSlices(cs, sliceLen)
		return p
	}
	for _, c := range []struct {
		slowFrom int
		q        float64
	}{{slices, 0.5}, {30, 0.5}, {slices, 0.1}, {8, 0.1}} {
		p := fold(c.slowFrom)
		if len(p.sliceUnitUS) != slices || len(p.sliceP50US[latGet]) != slices || len(p.sliceP50US[latPut]) != 0 {
			t.Fatalf("folded %d unit and %d get slices, want %d", len(p.sliceUnitUS), len(p.sliceP50US[latGet]), slices)
		}
		if unit, p50 := quantile(p.sliceUnitUS, c.q), quantile(p.sliceP50US[latGet], c.q); unit != 10 || p50 != 4 {
			t.Errorf("slow from slice %d, quantile %v: unit %v us, get p50 %v us; want the undisturbed 10 and 4", c.slowFrom, c.q, unit, p50)
		}
	}
}

// Command bench is the repository's one benchmark spine: four named
// workloads against the engine at HEAD, every end-to-end metric by name with
// unit and sample count, a correctness gate on every answer, and — in a
// second, traced pass of the same command — the per-layer numbers, measured
// from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"

	"repro/bench/span"
	"repro/internal/cache"
)

// A run builds its store setupRepeats times, and goes on building, up to
// setupRepeatsMax times, until setupSpend has gone into set-up: setup_s is
// the median, so a slow build does not read as a set-up regression, and a
// set-up of tens of milliseconds (read_hot's) gets the dozen samples it needs
// for its median to hold while the host is busy.
const (
	setupRepeats    = 3
	setupRepeatsMax = 12
	setupSpend      = 1500 * time.Millisecond
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    float64
	outDir   string
}

func main() {
	var o options
	var manifest bool
	var repeat int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+" (required)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same keys, values and op sequence")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal length of the measured phase; op counts are rate x seconds, fixed, not a deadline")
	flag.IntVar(&o.trace, "trace", 0, "1 = after the untraced pass, repeat the workload traced and report the per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink key space and op count together (the smoke test uses 0.01)")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result-<workload>.json and trace-<workload>.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json from the metric tables and exit")
	flag.IntVar(&repeat, "repeat", 0, "run two sets of this many untraced runs of every workload, plus one traced, and compare the set medians against the bounds")
	flag.Parse()

	switch {
	case manifest:
		os.Stdout.Write(manifestJSON(o.seconds))
	case repeat > 0:
		if !repeatAll(o, repeat) {
			os.Exit(1)
		}
	default:
		res, err := run(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		line, _ := json.Marshal(res.contractLine(o.trace == 1))
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// env is the block every result carries: enough to tell whether two results
// may be compared.
type env struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`

	Keys      int64 `json:"keys"`
	Preloaded int64 `json:"preloaded"`
	Ops       int64 `json:"ops"`
	Clients   int   `json:"clients"`
	Burst     int   `json:"burst,omitempty"`

	// Engine options as resolved, host-dependent defaults included.
	Engine map[string]any `json:"engine"`
}

func newEnv(o options, w *workload, sz sizing) env {
	opts := w.engineOptions(nil)
	// The two host-dependent defaults, resolved the way core.Options does.
	parallelism := max(1, runtime.GOMAXPROCS(0)/2)
	cacheShards := cache.ClampShards(cache.DefaultShards(), opts.BlockCacheSize, 4<<10)
	return env{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Keys: sz.keys, Preloaded: sz.preloaded, Ops: sz.ops, Clients: w.clients, Burst: w.burst,
		Engine: map[string]any{
			"policy": opts.Policy.String(), "memtable_size": opts.MemTableSize, "sstable_size": opts.SSTableSize,
			"fanout": opts.Fanout, "slice_link_threshold": opts.SliceLinkThreshold, "bloom_bits_per_key": opts.BloomBitsPerKey,
			"block_cache_size": opts.BlockCacheSize, "block_size": 4 << 10, "shards": max(1, opts.Shards), "sync": opts.Sync,
			"blob_threshold": opts.BlobThreshold, "sync_cost_us": w.syncCost.Microseconds(),
			"compaction_parallelism": parallelism, "block_cache_shards": cacheShards,
			"device": "ssdsim.DefaultProfile scale 1.0 over vfs.Mem",
		},
	}
}

// commit reports the VCS revision stamped into the binary, or "unknown"
// where the build had no repository (the driver's checkout has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// result is one run's full record, written to result-<workload>.json.
type result struct {
	Workload  string             `json:"workload"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]reading `json:"end_to_end"`
	PerLayer  map[string]reading `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// contractLine is the driver's result line: exactly these four keys, every
// declared end-to-end metric untraced or every per-layer metric traced, each
// as {value, unit}.
func (r *result) contractLine(traced bool) map[string]any {
	defs, from := endToEnd, r.EndToEnd
	if traced {
		defs, from = perLayer, r.PerLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": from[d.name].Value, "unit": d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// run executes one workload as the flags say and prints the human report.
func run(o options, report io.Writer) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have: %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 || o.scale <= 0 {
		return nil, fmt.Errorf("-seconds must be at least 1 and -scale positive")
	}
	sz := w.sizing(o.seconds, o.scale)
	res := &result{Workload: w.name, Env: newEnv(o, w, sz)}

	// End-to-end numbers always come from the untraced pass.
	u, err := runPass(passConfig{w: w, sz: sz, seed: o.seed, setups: setupRepeats, setupsMax: setupRepeatsMax})
	if err != nil {
		return nil, err
	}
	res.EndToEnd = e2eMetrics(u)
	res.Attempted, res.Failed = u.attempted.Load(), u.failed.Load()

	if o.trace == 1 {
		rec := span.New()
		unitOps := sz.ops
		if w.burst > 0 {
			unitOps /= int64(w.burst)
		}
		// Above 200 000 ops every k-th is spanned; file reads and writes
		// outnumber ops several times over, so they are thinned harder.
		cfg := passConfig{w: w, sz: sz, seed: o.seed, setups: 1, setupsMax: 1, rec: rec,
			opEvery: int((unitOps + 199_999) / 200_000), fsEvery: int((sz.ops + 9_999) / 10_000)}
		t, err := runPass(cfg)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		replayID := rec.Begin("phase.replay", t.root)
		layers, err := replay(w, sz, o.seed)
		rec.Finish(replayID)
		if err != nil {
			return nil, err
		}
		res.PerLayer = layerMetrics(t, u, layers)
		res.Attempted += t.attempted.Load()
		res.Failed += t.failed.Load()
		spans := rec.Spans()
		spans[t.root-1].End = rec.Now()
		tf := &span.File{Workload: w.name, Seed: o.seed, OpSample: cfg.opEvery, FSSample: cfg.fsEvery, SelfTimes: span.SelfTimes(spans), Spans: spans}
		if res.TraceFile, err = writeJSON(o.outDir, "trace-"+w.name+".json", tf, ""); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0

	printReport(report, res)
	if _, err := writeJSON(o.outDir, "result-"+w.name+".json", res, "  "); err != nil {
		return nil, err
	}
	return res, nil
}

// writeJSON encodes v into dir/name and returns the path.
func writeJSON(dir, name string, v any, indent string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printReport prints every end-to-end metric the workload itself produces,
// by name with unit and sample count, then the per-layer metrics if traced.
func printReport(out io.Writer, r *result) {
	e := r.Env
	fmt.Fprintf(out, "workload %s  seed %d  keys %d (preloaded %d)  ops %d  clients %d  cpus %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, e.Seed, e.Keys, e.Preloaded, e.Ops, e.Clients, e.CPUs, e.GOMAXPROCS, e.GoVersion, e.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\tn\tbound")
	for _, d := range allEndToEnd() {
		x, n, bound := r.EndToEnd[d.name], "", "report only"
		v := x.Value
		switch {
		case x.StandIn && x.Measured == 0:
			continue // not this workload's to report
		case x.StandIn:
			v = x.Measured // its own, but too unsteady here to bound
		case d.bound > 0:
			bound = fmt.Sprintf("%.0f %%", 100*d.bound)
		}
		if x.N > 0 {
			n = fmt.Sprint(x.N)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", d.name, v, d.unit, n, bound)
	}
	tw.Flush()
	if r.PerLayer != nil {
		fmt.Fprintln(tw, "per-layer metric (traced pass)\tvalue\tunit")
		for _, d := range perLayer {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, r.PerLayer[d.name].Value, d.unit)
		}
		tw.Flush()
		fmt.Fprintf(out, "spans: %s\n", r.TraceFile)
	}
	fmt.Fprintf(out, "attempted %d  failed %d  correct %v (in-run checks, then Close, reopen, every key read back and the key space walked)\n",
		r.Attempted, r.Failed, r.Correct)
}

// manifestJSON renders BENCHMARK.json from the metric and workload tables.
func manifestJSON(seconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: seconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return append(b, '\n')
}

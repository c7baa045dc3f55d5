package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// repeatAll is the benchmark's own noise check: two sets of n untraced runs
// of this same binary on every workload (fresh process each, seeds seed,
// seed+1, …), then one traced run per workload. It prints, per metric ×
// workload, the two set medians, their gap as a share of the first, and the
// metric's bound, and reports whether every gap stayed within its bound.
// The two sets are exchangeable, so the gap is taken in both directions.
func repeatAll(o options, n int) (ok bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	child := func(w *workload, seed int64, trace int) (map[string]float64, error) {
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		var last []byte
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(last, &line); err != nil || !line.Correct {
			return nil, fmt.Errorf("%s seed %d: bad result line (correct=%v, err=%v)", w.name, seed, line.Correct, err)
		}
		vals := make(map[string]float64, len(line.Metrics))
		for name, m := range line.Metrics {
			vals[name] = m.Value
		}
		return vals, nil
	}

	ok = true
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tgap\tbound\t")
	overhead := map[string]float64{}
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				vals, err := child(w, o.seed+int64(i), 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return false
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			gap := math.Abs(b-a) / a
			verdict := ""
			if gap > d.bound {
				verdict, ok = "OVER", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f %%\t%.0f %%\t%s\n", w.name, d.name, a, b, 100*gap, 100*d.bound, verdict)
		}
		tw.Flush()
		vals, err := child(w, o.seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		overhead[w.name] = vals["trace.overhead_pct"]
	}
	for _, w := range workloads {
		fmt.Printf("trace.overhead_pct  %s  %.1f %%\n", w.name, overhead[w.name])
	}
	return ok
}

// Command ldcbench regenerates the paper's tables and figures on this
// repository's store and SSD simulator: a loop over harness.Exhibits.
//
// Usage:
//
//	ldcbench [flags] <exhibit>...
//
// Exhibits are named in the usage text (ldcbench -h); "all" runs every one.
// Flags scale the run; defaults regenerate every shape in a few minutes.
// The command exits 1 when an exhibit's budgeted headline is breached on a
// run with device latency on.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		ops      = flag.Int64("ops", 0, "measured requests per run (0 = preset)")
		keySpace = flag.Int64("keyspace", 0, "distinct keys (0 = preset)")
		fanout   = flag.Int("fanout", 0, "LSM-tree fan-out k (0 = preset)")
		scale    = flag.Float64("devscale", -1, "SSD latency scale (0 disables, <0 = preset)")
		quick    = flag.Bool("quick", false, "use the sub-second smoke preset")
		seed     = flag.Int64("seed", 0, "workload seed (0 = preset)")
		clients  = flag.Int("clients", 0, "concurrent workload clients (0 = preset)")
		jsonPath = flag.String("json", "", "record every exhibit run, with the host and configuration, to this JSON file")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ldcbench [flags] <exhibit>...\n\nexhibits:\n")
		for _, e := range harness.Exhibits {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintf(os.Stderr, "  %-15s run every exhibit\n\nflags:\n", "all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := harness.Default()
	if *quick {
		cfg = harness.Quick()
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *keySpace > 0 {
		cfg.KeySpace = *keySpace
	}
	if *fanout > 0 {
		cfg.Store.Fanout = *fanout
		cfg.Store.SliceLinkThreshold = *fanout
	}
	if *scale >= 0 {
		cfg.Device.Scale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}

	var exhibits []harness.Exhibit
	for _, name := range flag.Args() {
		i := slices.IndexFunc(harness.Exhibits, func(e harness.Exhibit) bool { return e.Name == name })
		switch {
		case name == "all":
			exhibits = append(exhibits, harness.Exhibits...)
		case i < 0:
			fmt.Fprintf(os.Stderr, "ldcbench: unknown exhibit %q\n", name)
			os.Exit(2)
		default:
			exhibits = append(exhibits, harness.Exhibits[i])
		}
	}
	var tables []harness.Table
	breached := false
	for _, e := range exhibits {
		fmt.Printf("== %s: %s ==\n", e.Name, e.Desc)
		start := time.Now()
		t, err := harness.Run(e, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldcbench: %v\n", err)
			os.Exit(1)
		}
		t.Print(os.Stdout)
		fmt.Printf("-- %s done in %v --\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, t)
		for _, h := range t.Readings() {
			if h.Breached() {
				fmt.Fprintf(os.Stderr, "ldcbench: %s: %s is %.2f, budget %s\n", e.Name, h.Name, h.Value, h.Budget)
				breached = true
			}
		}
	}
	if *jsonPath != "" {
		if err := harness.WriteJSON(*jsonPath, cfg, tables); err != nil {
			fmt.Fprintf(os.Stderr, "ldcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if breached {
		os.Exit(1)
	}
}

// Command ldcdb is a small operational CLI for LDC databases: get/put/
// delete/scan against a store directory, plus inspection of the tree shape
// and engine statistics, and a load generator for quick hands-on testing.
//
// Usage:
//
//	ldcdb -db DIR [-policy udc|ldc] <command> [args]
//
// Commands:
//
//	put <key> <value>      insert or update a key
//	get <key>              print a key's value
//	delete <key>           delete a key
//	scan <start> [n]       print up to n pairs from start (default 10)
//	stats                  print engine statistics
//	profile                print the tree shape (files/bytes per level,
//	                       frozen region, slice threshold)
//	fill <n> [valueSize]   insert n random keys (default 100-byte values)
//	compact                run compaction until quiescent
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"repro/ldc"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ldcdb: "+format+"\n", args...)
	os.Exit(1)
}

func parsePolicy(s string) ldc.Policy {
	switch s {
	case "udc":
		return ldc.PolicyUDC
	case "ldc":
		return ldc.PolicyLDC
	}
	fail("unknown policy %q (want one of: udc, ldc)", s)
	panic("unreachable")
}

func main() {
	var (
		dir    = flag.String("db", "", "database directory (required)")
		policy = flag.String("policy", "ldc", "compaction policy: udc, ldc")
	)
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	db, err := ldc.Open(*dir, &ldc.Options{Policy: parsePolicy(*policy)})
	if err != nil {
		fail("open: %v", err)
	}
	defer db.Close()

	args := flag.Args()
	switch cmd := args[0]; cmd {
	case "put":
		if len(args) != 3 {
			fail("usage: put <key> <value>")
		}
		if err := db.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fail("put: %v", err)
		}

	case "get":
		if len(args) != 2 {
			fail("usage: get <key>")
		}
		v, err := db.Get([]byte(args[1]))
		if err != nil {
			fail("get: %v", err)
		}
		fmt.Printf("%s\n", v)

	case "delete":
		if len(args) != 2 {
			fail("usage: delete <key>")
		}
		if err := db.Delete([]byte(args[1])); err != nil {
			fail("delete: %v", err)
		}

	case "scan":
		if len(args) < 2 {
			fail("usage: scan <start> [n]")
		}
		n := 10
		if len(args) == 3 {
			n, err = strconv.Atoi(args[2])
			if err != nil {
				fail("bad count %q", args[2])
			}
		}
		pairs, err := db.Scan([]byte(args[1]), n)
		if err != nil {
			fail("scan: %v", err)
		}
		for _, kv := range pairs {
			fmt.Printf("%s = %s\n", kv.Key, kv.Value)
		}

	case "stats":
		s := db.Stats()
		fmt.Println(s.String())
		fmt.Printf("write amplification: %.2f\n", s.WriteAmplification())

	case "profile":
		p := db.CurrentProfile()
		for _, lp := range p.Levels {
			if lp.Files == 0 {
				continue
			}
			fmt.Printf("L%d: %4d files  %8d KB  %d slices\n",
				lp.Level, lp.Files, lp.Bytes>>10, lp.Slices)
		}
		fmt.Printf("frozen region: %d files, %d KB\n", p.FrozenFiles, p.FrozenBytes>>10)
		fmt.Printf("SliceLink threshold: %d\n", p.SliceThreshold)

	case "fill":
		if len(args) < 2 {
			fail("usage: fill <n> [valueSize]")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fail("bad count %q", args[1])
		}
		valueSize := 100
		if len(args) == 3 {
			if valueSize, err = strconv.Atoi(args[2]); err != nil {
				fail("bad value size %q", args[2])
			}
		}
		rng := rand.New(rand.NewSource(1))
		val := make([]byte, valueSize)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("fill-%012d", rng.Intn(10*n))
			if err := db.Put([]byte(key), val); err != nil {
				fail("fill: %v", err)
			}
		}
		fmt.Printf("inserted %d keys\n", n)

	case "compact":
		if err := db.CompactRange(); err != nil {
			fail("compact: %v", err)
		}
		fmt.Println("compacted")

	default:
		fail("unknown command %q", cmd)
	}
}

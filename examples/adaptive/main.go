// Adaptive demonstrates the paper's §III-B-4 self-adaptive SliceLink
// threshold: under a write-dominated phase the store raises T_s (bigger
// merge batches, less write amplification); when the workload turns
// read-dominated it lowers T_s (fewer linked slices to probe per read).
// The example alternates phases and prints the threshold as it moves.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/ldc"
)

const (
	keySpace = 20000
	phaseOps = 30000
)

func main() {
	profile := ldc.DefaultSSDProfile()
	profile.Scale = 0 // accounting only; this example is about the controller
	fs, _ := ldc.NewSimulatedSSD(ldc.MemFS(), profile)
	db, err := ldc.Open("/adaptive", &ldc.Options{
		FS:                 fs,
		Policy:             ldc.PolicyLDC,
		MemTableSize:       128 << 10,
		SSTableSize:        128 << 10,
		Fanout:             8,
		SliceLinkThreshold: 8,
		AdaptiveThreshold:  true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	key := func() []byte { return []byte(fmt.Sprintf("u%015d", rng.Intn(keySpace))) }
	value := make([]byte, 256)

	fmt.Printf("initial SliceLink threshold T_s = %d (fan-out 8)\n\n", db.CurrentProfile().SliceThreshold)

	phases := []struct {
		name       string
		writeRatio float64
	}{
		{"write-dominated (90% writes)", 0.9},
		{"read-dominated (10% writes)", 0.1},
		{"write-dominated again (90% writes)", 0.9},
	}
	for _, ph := range phases {
		for i := 0; i < phaseOps; i++ {
			if rng.Float64() < ph.writeRatio {
				if err := db.Put(key(), value); err != nil {
					log.Fatal(err)
				}
			} else if _, err := db.Get(key()); err != nil && err != ldc.ErrNotFound {
				log.Fatal(err)
			}
		}
		fmt.Printf("after %-36s T_s = %d\n", ph.name+":", db.CurrentProfile().SliceThreshold)
	}

	s := db.Stats()
	fmt.Printf("\nengine: links=%d merges=%d write-amp=%.2f\n",
		s.LinkCount, s.MergeCount, s.WriteAmplification())
	fmt.Println("T_s should rise in write phases and fall in the read phase.")
}

// Storage: the windy-forest workload of section III-B — a cluster of
// compute nodes that exchange data with random peers while writing a
// fraction p of their traffic to a small set of storage servers (the
// hotspots). The example sweeps the storage share p and shows how the
// congestion control mechanism keeps the peer-to-peer traffic near its
// theoretical maximum while the storage servers stay saturated.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	base := core.Default(12)
	base.Warmup = 2 * sim.Millisecond
	base.Measure = 4 * sim.Millisecond

	fmt.Println("compute cluster with 8 storage servers (windy forest, 100% B nodes)")
	fmt.Println("p = fraction of each node's traffic written to storage")
	fmt.Println()

	pts, err := core.RunWindySweepOpts(base, 100, []int{10, 30, 50, 60, 70, 90}, core.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure storage: windy forest, 100% B nodes")
	core.PrintWindy(os.Stdout, pts)

	best := pts[0]
	for _, pt := range pts {
		if pt.Improvement > best.Improvement {
			best = pt
		}
	}
	fmt.Println()
	fmt.Printf("peak benefit at p=%d: congestion control multiplies total cluster\n", best.P)
	fmt.Printf("throughput by %.2fx; peer traffic reaches %.0f%% of its theoretical\n",
		best.Improvement, 100*best.NonHotOn/best.TMax)
	fmt.Printf("maximum, against %.0f%% without congestion control.\n",
		100*best.NonHotOff/best.TMax)
}

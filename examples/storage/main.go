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

	recs, err := core.RunPairs(core.WindyRows(base, 100, []int{10, 30, 50, 60, 70, 90}), nil, core.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure storage: windy forest, 100% B nodes")
	core.PrintPaper(os.Stdout, core.Records(recs))

	best := recs[0]
	gain := func(r core.PaperRecord) float64 { return r.On.Summary.TotalGbps / r.Off.Summary.TotalGbps }
	for _, r := range recs {
		if gain(r) > gain(best) {
			best = r
		}
	}
	fmt.Println()
	fmt.Printf("peak benefit at p=%d: congestion control multiplies total cluster\n", best.Row.Off.PPercent)
	fmt.Printf("throughput by %.2fx; peer traffic reaches %.0f%% of its theoretical\n",
		gain(best), 100*best.On.Summary.NonHotspotAvgGbps/best.On.TMaxGbps)
	fmt.Printf("maximum, against %.0f%% without congestion control.\n",
		100*best.Off.Summary.NonHotspotAvgGbps/best.Off.TMaxGbps)
}

// Quickstart: the smallest end-to-end use of the library. We build a
// reduced fat-tree, let 80% of the nodes flood eight hotspots (the
// paper's silent forest of congestion trees), and compare the victims'
// throughput with the InfiniBand congestion control mechanism off and
// on.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	base := core.Default(12) // 72-node fat-tree, 18 crossbars
	base.Warmup = 2 * sim.Millisecond
	base.Measure = 4 * sim.Millisecond

	fmt.Println("silent forest of congestion trees, 80% contributors / 20% victims")
	fmt.Println()

	var off, on *core.Result
	for _, ccOn := range []bool{false, true} {
		s := base
		s.CCOn = ccOn
		res, err := core.Run(s)
		if err != nil {
			log.Fatal(err)
		}
		state := "off"
		if ccOn {
			state = "on "
			on = res
		} else {
			off = res
		}
		fmt.Printf("  cc %s: hotspots %6.3f Gbps  victims %6.3f Gbps  total %7.1f Gbps\n",
			state, res.Summary.HotspotAvgGbps, res.Summary.NonHotspotAvgGbps,
			res.Summary.TotalGbps)
	}

	fmt.Println()
	fmt.Printf("enabling congestion control multiplied the victims' throughput by %.1fx\n",
		on.Summary.NonHotspotAvgGbps/off.Summary.NonHotspotAvgGbps)
	fmt.Printf("and the total network throughput by %.2fx,\n",
		on.Summary.TotalGbps/off.Summary.TotalGbps)
	fmt.Printf("while the hotspots kept %.0f%% of their receive rate.\n",
		100*on.Summary.HotspotAvgGbps/off.Summary.HotspotAvgGbps)
}

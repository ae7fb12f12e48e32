package fault

import "repro/internal/sim"

// RateSample is one window of the aggregate receive rate across all
// hosts (data payload only).
type RateSample struct {
	T    sim.Time `json:"t_ps"`
	Gbps float64  `json:"gbps"`
}

// Stats is what one injector did during a run: drop tallies per class,
// link-state transitions, and (when the plan sampled rates) the
// receive-rate curve with a recovery metric derived from it.
type Stats struct {
	DroppedData    uint64 `json:"dropped_data"`
	DroppedFECN    uint64 `json:"dropped_fecn"`
	DroppedCNP     uint64 `json:"dropped_cnp"`
	DroppedAck     uint64 `json:"dropped_ack"`
	DroppedCredits uint64 `json:"dropped_credits"`
	LinkDowns      int    `json:"link_downs"`
	LinkUps        int    `json:"link_ups"`

	// FirstFaultStart/LastFaultEnd bound the scheduled-fault window
	// (zero when the plan only drops probabilistically).
	FirstFaultStart sim.Time `json:"first_fault_start_ps,omitempty"`
	LastFaultEnd    sim.Time `json:"last_fault_end_ps,omitempty"`

	// Samples is the receive-rate curve (present only when the plan set
	// SampleEvery).
	Samples []RateSample `json:"samples,omitempty"`

	// Recovery is the time from the last scheduled fault's end until
	// the aggregate receive rate first regained 90% of its pre-fault
	// baseline: -1 means it never recovered within the horizon, 0 means
	// not applicable (no samples or no scheduled faults).
	Recovery sim.Duration `json:"recovery_ps"`
}

// DroppedPackets sums the packet classes (credit updates excluded: they
// are deferred, not lost).
func (s *Stats) DroppedPackets() uint64 {
	return s.DroppedData + s.DroppedFECN + s.DroppedCNP + s.DroppedAck
}

// recoveryThreshold is the fraction of the pre-fault baseline rate a
// post-fault sample must reach to count as recovered.
const recoveryThreshold = 0.9

func (s *Stats) recovery() sim.Duration {
	if len(s.Samples) == 0 || s.LastFaultEnd == 0 {
		return 0
	}
	// Baseline: mean rate over the windows fully before the first
	// fault; when faults start before the first full window, fall back
	// to the peak rate ever seen so the threshold stays meaningful.
	var base float64
	var n int
	for _, smp := range s.Samples {
		if smp.T <= s.FirstFaultStart {
			base += smp.Gbps
			n++
		}
	}
	if n > 0 {
		base /= float64(n)
	} else {
		for _, smp := range s.Samples {
			if smp.Gbps > base {
				base = smp.Gbps
			}
		}
	}
	if base == 0 {
		return 0
	}
	for _, smp := range s.Samples {
		if smp.T >= s.LastFaultEnd && smp.Gbps >= recoveryThreshold*base {
			return smp.T.Sub(s.LastFaultEnd)
		}
	}
	return -1
}

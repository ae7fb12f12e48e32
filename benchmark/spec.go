package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is the
// share of the parent's median, taken over runs of different seeds, by
// which an end-to-end metric may worsen before a change is rejected;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the declaration of the workloads and of
// the metrics a run reports to the benchmark contract: the runner reads
// it to print workload reasons and to fill the contract's result line.
// Its end-to-end metrics are those of the ones measured (gate, in
// compare.go) that hold steady from seed to seed.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration (run from the repository root): %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// why returns the recorded reason a workload exists.
func (sp *spec) why(workload string) string {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metric sets the runs print in step: same names, same units, same
// workloads.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	conv := func(ms []metricDef) []def {
		out := make([]def, len(ms))
		for i, m := range ms {
			out[i] = def{m.name, m.unit}
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, conv(endToEnd)) {
		t.Errorf("end_to_end %v, runs report %v", doc.EndToEnd, conv(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, conv(perLayer)) {
		t.Errorf("per_layer %v, runs report %v", doc.PerLayer, conv(perLayer))
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("command %v", doc.Command)
	}
}

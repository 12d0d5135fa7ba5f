package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestContractMatchesBenchmarkJSON checks that the metrics the command
// prints are the ones BENCHMARK.json at the repository root declares.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		what     string
		declared []declared
		printed  []spec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the command prints %d", set.what, len(set.declared), len(set.printed))
		}
		for i, d := range set.declared {
			p := set.printed[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better {
				t.Errorf("%s[%d]: declared %+v, printed %+v", set.what, i, d, p)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}

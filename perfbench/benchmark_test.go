package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONAgrees: BENCHMARK.json at the repository root lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(doc.Workloads), workloadNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", got, want)
	}
	if got, want := names(doc.EndToEnd), sorted(endToEndNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", got, want)
	}
	if got, want := names(doc.PerLayer), sorted(perLayerNames); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", got, want)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json a run must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEmitsDeclaredMetrics runs every workload briefly, at a reduced key
// count, end to end and traced, and checks that each run is correct and
// emits exactly the metrics BENCHMARK.json declares, with their units.
func TestEmitsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, sw := range sp.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		w.keys = 8 << 10
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			b := execute(w, 1, 1, traced, t.TempDir())
			if n := b.tally.failed.Load(); n != 0 {
				t.Errorf("%s traced=%v: %d failures: %v", w.name, traced, n, b.tally.first)
			}
			got := b.report.metrics
			for _, m := range want {
				if g, ok := got[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, g.Unit, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", w.name, traced, len(got), len(want))
			}
		}
	}
}

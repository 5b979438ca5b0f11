package main

import (
	"slices"
	"strings"
	"testing"
)

func scenarioNames(w *workload, seed uint64, n int) []string {
	var names []string
	for _, s := range w.specs(seed, n) {
		names = append(names, s.Scenario)
	}
	return names
}

func TestSpecsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := scenarioNames(w, 7, 400), scenarioNames(w, 7, 400)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different spec lists", w.name)
		}
		if c := scenarioNames(w, 8, 400); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same spec list", w.name)
		}
	}
}

func TestSpecsShape(t *testing.T) {
	for _, w := range workloads {
		specs := w.specs(42, 40*len(w.scenarios)*w.lieEvery)
		for i := 0; i < len(specs); i += w.lieEvery {
			lies := 0
			for _, s := range specs[i : i+w.lieEvery] {
				if s.Adversarial != strings.HasSuffix(s.Scenario, "/adversarial") {
					t.Fatalf("%s: spec %q has Adversarial=%t", w.name, s.Scenario, s.Adversarial)
				}
				if s.Adversarial {
					lies++
				}
			}
			if lies != 1 {
				t.Fatalf("%s: block at %d has %d lies, want exactly 1", w.name, i, lies)
			}
		}
		k := len(w.scenarios)
		for i := 0; i < len(specs); i += k {
			seen := map[string]bool{}
			for _, s := range specs[i : i+k] {
				seen[strings.TrimSuffix(s.Scenario, "/adversarial")] = true
			}
			if len(seen) != k {
				t.Fatalf("%s: block at %d covers %d of %d scenarios", w.name, i, len(seen), k)
			}
		}
	}
}

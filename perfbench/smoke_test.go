package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalog")

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []endToEndDoc `json:"end_to_end"`
	PerLayer   []perLayerDoc `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 36

// catalogFile is what BENCHMARK.json must say, built from the workloads
// and the metric catalog.
func catalogFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndDoc{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerDoc{d.name, d.unit, d.better})
	}
	return f
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want := catalogFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BENCHMARK.json is out of date with the metric catalog; rerun with -update")
	}
}

// TestSmoke runs every workload briefly in both modes and checks that the
// result is correct and reports exactly the metrics BENCHMARK.json names
// for the mode, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real fleets")
	}
	want := catalogFile()
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range want.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range want.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 1, dur: time.Second, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < inFlight {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
			if traced {
				sum := 0.0
				for _, m := range cpuModules {
					sum += res.Metrics["cpu.share."+m].Value
				}
				if sum < 0.99 || sum > 1.01 {
					t.Errorf("%s: cpu shares sum to %g", w.name, sum)
				}
			}
		}
	}
}

func TestHostFacts(t *testing.T) {
	facts := hostFacts()
	for _, k := range []string{"cores", "gomaxprocs", "cpu_model", "go_version", "git_rev"} {
		if v, ok := facts[k]; !ok || v == "" || v == 0 {
			t.Errorf("host fact %s = %v", k, v)
		}
	}
}

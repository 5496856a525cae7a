package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size through the same path as the
// command and returns the parsed last line of its output.
func runTiny(t *testing.T, workload string, seed int64, trace bool) report {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 0.3, trace: trace, scratch: t.TempDir(), size: "tiny"}
	if err := benchmark(o, &out, io.Discard); err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d",
			workload, seed, trace, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// exact reports whether a metric is an exact counter: the same inputs
// must give the same value on every run.
func exact(name string) bool {
	return strings.HasPrefix(name, "core.") || name == "mpi.wire_mb" || name == "virtual_s"
}

// TestEveryWorkloadPrintsItsMetrics runs each workload of BENCHMARK.json
// at the tiny size, untraced and traced, twice for each of two seeds. Every
// run must print exactly the metrics BENCHMARK.json names for its mode,
// with their units, and the exact counters must repeat bit for bit.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	units := func(trace bool) map[string]string {
		want := make(map[string]string)
		list := s.EndToEnd
		if trace {
			list = s.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		return want
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want := units(trace)
				for _, seed := range []int64{recordedSeed, 7} {
					first := runTiny(t, w.Name, seed, trace)
					again := runTiny(t, w.Name, seed, trace)
					if len(first.Metrics) != len(want) {
						t.Errorf("trace %v: %d metrics printed, BENCHMARK.json names %d", trace, len(first.Metrics), len(want))
					}
					for name, unit := range want {
						got, ok := first.Metrics[name]
						if !ok {
							t.Errorf("trace %v: metric %s missing", trace, name)
							continue
						}
						if got.Unit != unit {
							t.Errorf("trace %v: metric %s in %q, BENCHMARK.json says %q", trace, name, got.Unit, unit)
						}
						if exact(name) && again.Metrics[name] != got {
							t.Errorf("seed %d: exact counter %s changed between runs: %v then %v",
								seed, name, got.Value, again.Metrics[name].Value)
						}
					}
				}
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	err := benchmark(options{workload: "nope", seconds: 1, scratch: t.TempDir(), size: "tiny"}, &out, io.Discard)
	if err == nil || out.Len() != 0 {
		t.Fatalf("unknown workload: err=%v, output %q", err, out.String())
	}
}

// TestInputsForManySeeds checks that the generated pools hold enough
// residues for any seed, so no seed makes a run fail at set-up.
func TestInputsForManySeeds(t *testing.T) {
	for _, size := range []string{"full", "tiny"} {
		for seed := int64(1); seed <= 40; seed++ {
			for i := 0; i < 4; i++ {
				if _, err := metaclustInput(inputSeed(seed, i), size); err != nil {
					t.Errorf("metaclust %s seed %d input %d: %v", size, seed, i, err)
				}
				if _, err := scopeInput(inputSeed(seed, i), size); err != nil {
					t.Errorf("scope %s seed %d input %d: %v", size, seed, i, err)
				}
			}
		}
	}
}

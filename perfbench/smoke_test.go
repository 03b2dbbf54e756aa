package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type benchSpec struct {
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

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{workload: workload, seed: 3, seconds: 0.5, trace: trace, tiny: true,
		workdir: t.TempDir(), threads: 2}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units, and that its answers were checked and correct.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(t, w.Name, trace)
			res, err := measure(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(c.workdir + "/spans-" + w.Name + "-3.json"); err != nil {
					t.Errorf("%s: no span dump: %v", w.Name, err)
				}
			}
		}
	}
}

// TestWrongAnswersFail corrupts one expected answer per workload and
// checks that the run reports it as a failed operation.
func TestWrongAnswersFail(t *testing.T) {
	for _, w := range workloads {
		c := tinyConfig(t, w.name, false)
		inst, err := w.setup(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.prepare(); err != nil {
			t.Fatal(err)
		}
		switch x := inst.(type) {
		case *censusInst:
			for code := range x.oracle {
				x.oracle[code]++
				break
			}
		case *mineInst:
			for i := range x.want {
				x.want[i]++
			}
		case *serveInst:
			for key := range x.want {
				x.want[key]++
			}
		}
		rec := &recorder{}
		inst.run(200*time.Millisecond, rec)
		inst.close()
		if rec.failed == 0 {
			t.Errorf("%s: corrupted reference answers, but no operation failed", w.name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, err := measure(&config{workload: "nope", workdir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

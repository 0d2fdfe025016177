package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 1, trace: trace, docs: 300, out: t.TempDir(), opScale: 0.1}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkReport requires exactly the declared metrics, each once, with
// the declared unit and a finite value, and no failed operation.
func checkReport(t *testing.T, rep *report, want []declared) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run with no failures", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared in BENCHMARK.json but not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v is not finite", d.Name, m.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, driver has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rep, err := run(io.Discard, smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, c.EndToEnd)
			for _, d := range c.EndToEnd {
				if rep.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}

			cfg := smokeConfig(t, w, true)
			rep, err = run(io.Discard, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, c.PerLayer)
			var spans []span
			data, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Errorf("span file: %d spans, err %v", len(spans), err)
			}
		})
	}
}

// TestSameSeedSameInputs holds the benchmark to its contract with the
// driver: a seed fixes the script, and another seed changes it.
func TestSameSeedSameInputs(t *testing.T) {
	hash := func(seed int64) string {
		c := smokeConfig(t, "mixed-rw", false)
		c.seed = seed
		in, err := prepare(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		return in.script.sha256()
	}
	if a, b := hash(5), hash(5); a != b {
		t.Errorf("seed 5 gave scripts %s and %s", a, b)
	}
	if hash(5) == hash(6) {
		t.Error("seeds 5 and 6 gave the same script")
	}
}

func TestCorruptedReferenceFailsTheCheck(t *testing.T) {
	cfg := smokeConfig(t, "point-topk", false)
	cfg.corruptReference = true
	rep, err := run(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("correct=%v failed=%d with a corrupted reference, want an incorrect run", rep.Correct, rep.Failed)
	}
}

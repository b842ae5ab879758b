package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestWorkloadsGateAndDigest runs every workload at its tiny size through
// the traced run: a plain run, a traced run (counting scheduler, CPU
// profile) and a second plain run on the same seed. All three must pass
// the correctness gate and print the same virtual digest.
func TestWorkloadsGateAndDigest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, outs, err := tracedRun(w.tiny, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 3 {
				t.Fatalf("got %d runs, want 3", len(outs))
			}
			for i, r := range outs {
				o := r.out
				if len(o.problems) > 0 || o.ok != o.attempted || o.attempted != w.tiny.conns {
					t.Errorf("run %d failed the gate: %v %q", i, o, o.problems)
				}
				if o.digest != outs[0].out.digest {
					t.Errorf("run %d digest %s, want %s", i, o.digest, outs[0].out.digest)
				}
			}
			for _, d := range perLayerNames() {
				if _, ok := m[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if m["profile.samples"] < 1 {
				t.Errorf("CPU profile has no samples")
			}
			var selfSum float64
			for _, l := range allLayers() {
				self, total := m[l+".self_frac"], m[l+".total_frac"]
				selfSum += self
				if l != layerRuntime && total < self || total > 1 {
					t.Errorf("%s: self %v, total %v", l, self, total)
				}
			}
			if selfSum < 0.999 || selfSum > 1.001 {
				t.Errorf("self shares sum to %v, want 1", selfSum)
			}
			if m["sim.events"] != float64(outs[0].out.events) {
				t.Errorf("sim.events %v, want the digest's %d", m["sim.events"], outs[0].out.events)
			}
		})
	}
}

// TestSeedChangesDigest checks that the seed reaches the simulated input.
func TestSeedChangesDigest(t *testing.T) {
	w, _ := workloadByName("churn")
	digest := func(seed int64) string {
		_, r, err := runOnce(w.tiny, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.out.digest
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}

// TestResultLine checks the printed result against the metric list in
// BENCHMARK.json, in both modes.
func TestResultLine(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	for _, mode := range []struct {
		trace string
		want  []metricDef
		got   []struct{ Name, Unit string }
	}{
		{"0", endToEnd, spec.EndToEnd},
		{"1", perLayerNames(), spec.PerLayer},
	} {
		if len(mode.got) != len(mode.want) {
			t.Errorf("trace %s: BENCHMARK.json lists %d metrics, the program %d", mode.trace, len(mode.got), len(mode.want))
		}
		for i := range mode.got {
			if i < len(mode.want) && (mode.got[i].Name != mode.want[i].name || mode.got[i].Unit != mode.want[i].unit) {
				t.Errorf("trace %s metric %d: BENCHMARK.json %+v, program %+v", mode.trace, i, mode.got[i], mode.want[i])
			}
		}

		var stdout, stderr bytes.Buffer
		w, _ := workloadByName("churn")
		if code := report(w.name, w.tiny, 3, 0, mode.trace == "1", &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s%s", mode.trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", mode.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: result %+v", mode.trace, res)
		}
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		var want []string
		for _, d := range mode.want {
			want = append(want, d.name)
		}
		slices.Sort(names)
		slices.Sort(want)
		if !slices.Equal(names, want) {
			t.Errorf("trace %s: metrics %v, want %v", mode.trace, names, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/tcp.(*Stack).emit":              "tcp",
		"repro/internal/sttcp.(*Node).sortedKeys.func1": "sttcp",
		"repro/internal/sim.(*Simulator).RunUntil":      "sim",
		"repro/internal/experiment.Build":               layerOther,
		"repro/internal/arp.(*Cache).Lookup":            layerOther,
		"main.(*countingScheduler).Pop":                 layerOther,
		"runtime.mallocgc":                              "",
		"fmt.Sprintf":                                   "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

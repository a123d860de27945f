package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smoke runs one invocation at smoke size (1 task × 2 epochs, a few replay
// calls) through the same path the command takes and returns its last line.
func smoke(t *testing.T, w workload, traced bool) resultLine {
	t.Helper()
	cfg := runConfig{W: w, Seed: 1, Trace: traced, Tasks: 1, Epochs: 2, Replay: quickReplay}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
	}
	var out bytes.Buffer
	if err := report(&out, cfg, res); err != nil {
		t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s traced=%t: last line is not the result object: %v", w.Name, traced, err)
	}
	// Two epochs do not train a model: only the accuracy floor may fail here.
	for _, p := range res.Problems {
		if !strings.Contains(p, "final accuracy") {
			t.Errorf("%s traced=%t: %s", w.Name, traced, p)
		}
	}
	if line.Attempted != 2*w.Workers || line.Failed != 0 {
		t.Errorf("%s traced=%t: attempted %d failed %d", w.Name, traced, line.Attempted, line.Failed)
	}
	return line
}

// TestSmokeAndClosedWorld runs every workload untraced, two of them traced
// (one TCP, one durable), and holds the names the command emits, the
// catalogue and BENCHMARK.json to one set with units, directions and bounds.
func TestSmokeAndClosedWorld(t *testing.T) {
	journalRoot = t.TempDir()

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file manifestFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `go run ./benchmark -manifest`\n got %+v\nwant %+v", file, want)
	}
	seen := make(map[string]bool)
	for _, group := range [][]manifestMetric{file.EndToEnd, file.PerLayer} {
		for _, m := range group {
			if seen[m.Name] {
				t.Errorf("metric %s is listed twice", m.Name)
			}
			seen[m.Name] = true
			if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s lacks a unit or a direction", m.Name)
			}
		}
	}
	for _, m := range file.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}

	emitted := func(line resultLine, defs []manifestMetric, nonZero bool) {
		t.Helper()
		if len(line.Metrics) != len(defs) {
			t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			got, ok := line.Metrics[d.Name]
			if !ok || got.Unit != d.Unit {
				t.Errorf("metric %s: emitted %+v (present %t), want unit %s", d.Name, got, ok, d.Unit)
			}
			if nonZero && got.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", d.Name)
			}
		}
	}
	for _, w := range workloads {
		emitted(smoke(t, w, false), file.EndToEnd, true)
	}
	for _, name := range []string{"proofs4_v2_tcp", "durable8_v2_disk"} {
		w, _ := findWorkload(name)
		emitted(smoke(t, w, true), file.PerLayer, false)
	}
}

// Command benchmark is the repo's end-to-end benchmark: seeded pool epochs
// over real TCP and a real disk, timed from outside and attributed layer by
// layer. One invocation measures one workload:
//
//	bash benchmark/run.sh --workload ref10_v2_tcp --seed 1 --seconds 25 --trace 0
//
// prints every end-to-end metric by name and unit, checks the run's outputs,
// and ends with one JSON object on the last line of standard output. With
// --trace 1 it prints the per-layer metrics instead. Without --workload it
// runs every workload both ways; -aa K repeats that K times in child
// processes and reports the run-to-run spread. See README.md in this
// directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed     = fs.Int64("seed", 1, "seed every input and random stream derives from")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and layer replay")
		quick    = fs.Bool("quick", false, "smoke run: 1 task × 2 epochs, a few replay calls")
		aa       = fs.Int("aa", 0, "A/A mode: run every workload this many times, seeds seed..seed+K-1, and print the spread of each end-to-end metric")
		dump     = fs.String("dump", "", "with --trace 1: write the spans as JSON lines to this file")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		return printManifest(stdout)
	}
	if *aa > 0 {
		return runAA(*aa, *seed, *seconds, stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	modes := []bool{*trace != 0}
	if *name == "" {
		modes = []bool{false, true}
	}
	code := 0
	for _, w := range selected {
		for _, traced := range modes {
			cfg := runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: traced, Replay: fullReplay, Dump: *dump}
			if *quick {
				cfg.Tasks, cfg.Epochs, cfg.Replay = 1, 2, quickReplay
			}
			res, err := run(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if err := report(stdout, cfg, res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// report prints the host facts, every metric by name with its unit, the
// check results, and the result object as the last line.
func report(out io.Writer, cfg runConfig, res *runResult) error {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "# workload %s seed %d trace %t — %s\n", cfg.W.Name, cfg.Seed, cfg.Trace, cfg.W.Why)
	fmt.Fprintf(w, "# host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	line := resultLine{
		Correct:   res.Correct,
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.W.Name, d.Name)
		}
		fmt.Fprintf(w, "%-48s %16.6f %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%s: measured %d metrics, the catalogue lists %d", cfg.W.Name, len(res.Metrics), len(defs))
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", p)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", data)
	return w.Flush()
}

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func printManifest(out io.Writer) int {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildManifest()); err != nil {
		return 1
	}
	return 0
}

// dumpSpans writes spans as JSON lines: one object per span, ids being line
// numbers (from 0) so `parent` can be followed by hand.
func dumpSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for id, s := range spans {
		row := struct {
			ID       int    `json:"id"`
			Workload string `json:"workload"`
			span
		}{id, workload, s}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAA measures run-to-run spread the way the driver does: K runs of every
// workload in child processes of this same binary, alternating workloads so
// drift in the host hits all of them alike, each set on another seed.
func runAA(k int, seed int64, seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	readings := make(map[string]map[string][]float64) // workload → metric → values
	code := 0
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed+int64(i)),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: A/A run %d of %s: %v\n", i, w.Name, err)
				code = 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				fmt.Fprintf(stderr, "benchmark: A/A run %d of %s printed no result: %v\n", i, w.Name, err)
				return 1
			}
			if !line.Correct || line.Failed > 0 {
				code = 1
			}
			if readings[w.Name] == nil {
				readings[w.Name] = make(map[string][]float64)
			}
			for name, v := range line.Metrics {
				readings[w.Name][name] = append(readings[w.Name][name], v.Value)
			}
			fmt.Fprintf(stderr, "A/A set %d/%d %s done\n", i+1, k, w.Name)
		}
	}
	fmt.Fprintf(stdout, "%-18s %-20s %12s %12s %12s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "max/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			s := spreadOf(readings[w.Name][d.Name])
			flag := ""
			if d.Name != "setup_s" && s.IQRShare > d.Bound/3 {
				flag = " !"
			}
			fmt.Fprintf(stdout, "%-18s %-20s %12.5g %12.5g %12.5g %8.4f %8.4f %6.2f%s\n",
				w.Name, d.Name, s.Median, s.Q1, s.Q3, s.IQRShare, s.MaxShare, d.Bound, flag)
		}
	}
	fmt.Fprintf(stdout, "# %d sets, seeds %d..%d; ! marks a spread above a third of its bound\n", k, seed, seed+int64(k)-1)
	return code
}

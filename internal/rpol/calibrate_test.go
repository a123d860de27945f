package rpol

import (
	"bytes"
	"reflect"
	"testing"

	"rpol/internal/gpu"
	"rpol/internal/lsh"
	"rpol/internal/obs"
	"rpol/internal/stats"
)

// TestCalibratorWalkMatchesTwoTraces: the calibrator's second probe walks one
// vector through the first probe's intervals, and gives bit for bit what two
// full probe traces give — the distances in order, α, β, the LSH parameters
// and family — over consecutive calibrations that recycle the first trace
// and reuse the walk, one of them with a shorter last interval. It counts
// the same probe steps and opens the same two calibrate.probe spans.
func TestCalibratorWalkMatchesTwoTraces(t *testing.T) {
	net, ds := testTask(t, 22)
	var spans bytes.Buffer
	reg := obs.NewRegistry()
	cal := &Calibrator{Net: net, Shard: ds, XFactor: 5, KLsh: 16, Obs: obs.NewObserver(reg, obs.NewTracer(&spans, nil))}
	profiles := [2]gpu.Profile{gpu.G3090, gpu.GA10}
	p := testParams(net.ParamVector())
	totalSteps := 0
	for epoch, steps := range []int{15, 17, 15} {
		p.Epoch, p.Steps, p.Nonce = epoch, steps, p.Nonce+1
		seeds, lshSeed := [2]int64{int64(10 * epoch), int64(10*epoch + 1)}, int64(epoch+3)

		// The reference: two full probe traces on trainers of their own.
		var traces [2]*Trace
		for i, profile := range profiles {
			dev, err := gpu.NewDevice(profile, seeds[i])
			if err != nil {
				t.Fatal(err)
			}
			if traces[i], err = (&Trainer{Net: net, Shard: ds, Device: dev}).RunEpoch(p); err != nil {
				t.Fatal(err)
			}
		}
		want, err := TraceDistances(traces[0], traces[1])
		if err != nil {
			t.Fatal(err)
		}
		summary, err := stats.Summarize(want)
		if err != nil {
			t.Fatal(err)
		}
		alpha := summary.MeanPlusSD
		params, _, _, err := lsh.Optimize(alpha, 5*alpha, lsh.OptimizeOptions{KLsh: 16})
		if err != nil {
			t.Fatal(err)
		}
		wantFam, err := lsh.NewFamily(len(p.Global), params, lshSeed)
		if err != nil {
			t.Fatal(err)
		}

		got, err := cal.MeasureErrors(p, profiles[0], profiles[1], seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: distances %v, two traces give %v", epoch, got, want)
		}
		c, fam, err := cal.Calibrate(p, profiles[0], profiles[1], seeds, lshSeed)
		if err != nil {
			t.Fatal(err)
		}
		if c.Alpha != alpha || c.Beta != 5*alpha || c.Params != params {
			t.Errorf("epoch %d: α %v, β %v, %+v; two traces give %v, %v, %+v", epoch, c.Alpha, c.Beta, c.Params, alpha, 5*alpha, params)
		}
		if !reflect.DeepEqual(fam, wantFam) {
			t.Errorf("epoch %d: the family differs from the two-trace reference's", epoch)
		}
		// MeasureErrors and Calibrate each ran both probes.
		totalSteps += 4 * steps
		p.Global = traces[0].Final()
	}
	if got := reg.Counter("rpol_probe_steps_total").Value(); got != int64(totalSteps) {
		t.Errorf("rpol_probe_steps_total = %d, want %d", got, totalSteps)
	}
	events, err := obs.ReadEvents(&spans)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(obs.BuildSpanTree(events).SpansNamed("calibrate.probe")); n != 2*2*3 {
		t.Errorf("%d calibrate.probe spans, want two per probe run, %d", n, 2*2*3)
	}
}

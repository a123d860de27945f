// Command rpolsim runs a full mining-pool simulation: a manager coordinates
// honest and adversarial workers over several epochs with the selected
// verification scheme, printing per-epoch accuracy, detection counts, and
// the final reward distribution.
//
// Usage:
//
//	rpolsim -scheme v2 -workers 10 -adv1 0.2 -adv2 0.2 -epochs 6
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rpol/internal/obs"
	"rpol/internal/obscli"
	"rpol/internal/pool"
	"rpol/internal/rpol"
)

func main() {
	var (
		task    = flag.String("task", "resnet18-cifar10", "modelzoo task name")
		scheme  = flag.String("scheme", "v2", "verification scheme: baseline | v1 | v2")
		workers = flag.Int("workers", 10, "pool size")
		adv1    = flag.Float64("adv1", 0, "fraction of replay attackers")
		adv2    = flag.Float64("adv2", 0, "fraction of spoofing attackers")
		epochs  = flag.Int("epochs", 5, "epochs to run")
		steps   = flag.Int("steps", 10, "training steps per epoch per worker")
		amlayer = flag.Bool("amlayer", true, "prepend the address-encoded mapping layer")
		seed    = flag.Int64("seed", 1, "simulation seed")
		jdir    = flag.String("journal", "", "directory for the durable epoch journal (empty disables journaling)")
		resume  = flag.Bool("resume", false, "recover the pool's position from -journal before running (requires -journal)")
		linger  = flag.Duration("linger", 0, "keep the process (and any -serve/-pprof endpoints) alive this long after the run, e.g. 30s")
		obsOpts obscli.Options
	)
	obsOpts.Register(flag.CommandLine)
	flag.Parse()
	if *resume && *jdir == "" {
		fmt.Fprintln(os.Stderr, "rpolsim: -resume requires -journal")
		os.Exit(1)
	}
	observer, finishObs, err := obsOpts.Setup(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpolsim:", err)
		os.Exit(1)
	}
	if err := run(*task, *scheme, *workers, *adv1, *adv2, *epochs, *steps, *amlayer, *seed, *jdir, *resume, observer, obsOpts.Table); err != nil {
		fmt.Fprintln(os.Stderr, "rpolsim:", err)
		os.Exit(1)
	}
	// -linger holds the -serve/-pprof endpoints open after the workload so
	// external scrapers (CI smoke, a late rpoltop) can still probe the
	// finished run; finishObs then shuts the listeners down.
	obs.WallSleep(*linger)
	if err := finishObs(); err != nil {
		fmt.Fprintln(os.Stderr, "rpolsim:", err)
		os.Exit(1)
	}
}

func parseScheme(s string) (rpol.Scheme, error) {
	switch s {
	case "baseline":
		return rpol.SchemeBaseline, nil
	case "v1":
		return rpol.SchemeV1, nil
	case "v2":
		return rpol.SchemeV2, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

func run(task, schemeName string, workers int, adv1, adv2 float64, epochs, steps int, useAMLayer bool, seed int64, jdir string, resume bool, observer *obs.Observer, phaseTable bool) error {
	scheme, err := parseScheme(schemeName)
	if err != nil {
		return err
	}
	p, err := pool.New(pool.Config{
		TaskName:      task,
		Scheme:        scheme,
		NumWorkers:    workers,
		Adv1Fraction:  adv1,
		Adv2Fraction:  adv2,
		StepsPerEpoch: steps,
		UseAMLayer:    useAMLayer,
		Seed:          seed,
		Obs:           observer,
		Journal:       jdir,
		Resume:        resume,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	fmt.Printf("pool: task=%s scheme=%s workers=%d adv1=%.0f%% adv2=%.0f%%\n\n",
		task, scheme, workers, adv1*100, adv2*100)
	if n := p.CompletedEpochs(); n > 0 {
		fmt.Printf("resumed from journal: %d epochs already sealed\n", n)
	}
	fmt.Println("epoch  accuracy  accepted  rejected  absent  detected  missed  false-rej  verify-comm")
	phases := obs.PhaseBreakdown{}
	for e := p.CompletedEpochs(); e < epochs; e++ {
		s, err := p.RunEpoch()
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %8.4f  %8d  %8d  %6d  %8d  %6d  %9d  %8.1fKB\n",
			s.Epoch, s.TestAccuracy, s.Accepted, s.Rejected, s.AbsentWorkers,
			s.DetectedAdversaries, s.MissedAdversaries, s.FalseRejections,
			float64(s.VerifyCommBytes)/1024)
		phases.Merge(s.Phases)
	}
	if phaseTable {
		fmt.Println("\nper-phase totals:")
		fmt.Print(obs.PhaseTable(phases))
	}

	fmt.Println("\nrewards (accepted epochs):")
	rewards := p.Rewards()
	ids := make([]string, 0, len(rewards))
	for id := range rewards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	roles := p.Roles()
	for _, id := range ids {
		fmt.Printf("  %-12s %-7s %.0f\n", id, roles[id], rewards[id])
	}
	return nil
}

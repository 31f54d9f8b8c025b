package bench

import (
	"fmt"
	"strings"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/stats"
)

// This file implements the chaos ablation: the synthetic benchmark run
// under deterministic fault injection, sweeping the OST transient-error
// rate while the interconnect, the memory accountant, and the one-sided
// put path misbehave at fixed background rates. Every injection decision
// derives from the seed, so two runs with the same seed produce identical
// injection and retry counts — the property the chaos tests pin down.

// ChaosOptions configures the chaos sweep.
type ChaosOptions struct {
	// Seed drives every injection decision.
	Seed int64
	// Procs is the process count of each run.
	Procs int
	// Rates lists the OST transient-error probabilities to sweep (applied
	// to both reads and writes).
	Rates []float64
	// SlowProb/SlowFactor inject slow OST services: with probability
	// SlowProb a request's service time is multiplied by SlowFactor.
	SlowProb   float64
	SlowFactor float64
	// NetSetupProb drops interconnect connection setups (NIC-retried).
	NetSetupProb float64
	// MemProb injects transient allocation pressure.
	MemProb float64
	// PutDropProb drops TCIO's one-sided put work requests
	// (library-retried).
	PutDropProb float64
	// DrainWorkers is TCIO's per-OST drain fan-out for the sweep's runs
	// (0 or 1 = serial). Counts stay seed-deterministic at any setting:
	// the fan-out reorders requests across OSTs but never changes which
	// requests are issued or how their fault rolls are keyed.
	DrainWorkers int
	// StripeCount overrides the file stripe width in OSTs (0 keeps the
	// paper's single-OST striping). A multi-OST stripe gives DrainWorkers
	// real fan-out to reorder requests across.
	StripeCount int
	// LenSim and LenReal size the workload like SweepOptions.
	LenSim  int
	LenReal int
	// Verify makes readers check every byte against the generator.
	Verify bool
	// Progress receives one line per completed run.
	Progress func(string) `json:"-"`
}

// DefaultChaos returns the sweep reported in EXPERIMENTS.md: 64 processes,
// OST error rates 0 / 1% / 5%, with background interconnect, memory, and
// put-path faults.
func DefaultChaos() ChaosOptions {
	return ChaosOptions{
		Seed:         1,
		Procs:        64,
		Rates:        []float64{0, 0.01, 0.05},
		SlowProb:     0.02,
		SlowFactor:   8,
		NetSetupProb: 0.01,
		MemProb:      0.005,
		PutDropProb:  0.01,
		LenSim:       4 << 20,
		LenReal:      4 << 10,
		Verify:       true,
	}
}

// ChaosInjector builds the sweep's injector for one OST error rate: the
// rate applies to OST reads and writes, the remaining sites run at the
// sweep's background probabilities.
func (o ChaosOptions) ChaosInjector(rate float64) *faults.Injector {
	return faults.New(o.Seed).
		Set(faults.SiteOSTWrite, faults.Rule{Prob: rate}).
		Set(faults.SiteOSTRead, faults.Rule{Prob: rate}).
		Set(faults.SiteOSTSlow, faults.Rule{Prob: o.SlowProb, Factor: o.SlowFactor}).
		Set(faults.SiteNetSetup, faults.Rule{Prob: o.NetSetupProb}).
		Set(faults.SiteMemAlloc, faults.Rule{Prob: o.MemProb}).
		Set(faults.SiteWinPut, faults.Rule{Prob: o.PutDropProb})
}

// Chaos runs TCIO and OCIO write+read under each OST error rate and
// tabulates injection and retry counts. Only deterministic quantities are
// reported (counts, not virtual times), so two sweeps with the same seed
// emit byte-identical tables.
func Chaos(opts ChaosOptions) (stats.Table, error) {
	if len(opts.Rates) == 0 {
		opts.Rates = DefaultChaos().Rates
	}
	t := stats.Table{
		Title: fmt.Sprintf("Chaos sweep: %d processes, seed %d (counts are seed-deterministic)",
			opts.Procs, opts.Seed),
		Headers: []string{"ost-rate", "method", "phase", "drain-workers", "injected", "fs-retries",
			"setup-retries", "slow-svc", "lock-storms", "alloc-retries", "result"},
		Params: opts,
	}
	types := []datatype.Type{datatype.Int, datatype.Double}
	workers := max(opts.DrainWorkers, 1)
	for _, rate := range opts.Rates {
		for _, method := range []Method{MethodTCIO, MethodOCIO} {
			inj := opts.ChaosInjector(rate)
			env, err := newEnv(int64(opts.LenSim/opts.LenReal), opts.StripeCount, inj)
			if err != nil {
				return t, err
			}
			cfg := SyntheticConfig{
				Method:       method,
				Procs:        opts.Procs,
				TypeArray:    types,
				LenArray:     opts.LenReal,
				SizeAccess:   1,
				Verify:       opts.Verify,
				FileName:     fmt.Sprintf("chaos-%v-%d", method, int(rate*1000)),
				DrainWorkers: opts.DrainWorkers,
			}
			for _, phase := range []string{"write", "read"} {
				before := inj.TotalInjected()
				pr := runPhase(env, cfg, phase == "write")
				injected := inj.TotalInjected() - before
				t.AddRow(fmt.Sprintf("%.2f", rate), method, phase, workers, injected, pr.FS.Retries,
					pr.Net.SetupRetries, pr.FS.SlowServices, pr.FS.LockStorms, pr.AllocRetries, pr.Result())
				progressf(opts.Progress, "chaos rate=%.2f %v %s: %s (injected %d)",
					rate, method, phase, pr.Result(), injected)
				if pr.Failed && phase == "write" {
					break // nothing on disk to read back
				}
			}
		}
	}
	return t, nil
}

// chaosTable is a counts-only table of a feature sweep run under fault
// injection: every cell runs in a fresh environment whose hardware injects
// at the chaos sweep's background rates and a 1% OST error rate, all drawn
// from one seed, and renders as its key columns, the injections it counts,
// its counters and its result.
type chaosTable struct {
	stats.Table
	name     string
	seed     int64
	progress func(string)
}

func newChaosTable(name, title string, seed int64, progress func(string), params any, key, counters []string) *chaosTable {
	headers := append(append(append(key, "injected"), counters...), "result")
	return &chaosTable{
		Table: stats.Table{Title: title, Headers: headers, Params: params},
		name:  name, seed: seed, progress: progress,
	}
}

// cell runs one cell on a byte-scaled environment striped over stripe OSTs
// (0 or 1 keeps the paper's single OST). run returns the injections the
// cell counts, its counter cells and its result.
func (c *chaosTable) cell(scale int64, stripe int, key []any,
	run func(env *Env) (injected int64, counters []any, result string, err error)) error {
	base := DefaultChaos()
	base.Seed = c.seed
	env, err := newEnv(scale, stripe, base.ChaosInjector(0.01))
	if err != nil {
		return err
	}
	injected, counters, result, err := run(env)
	if err != nil {
		return err
	}
	c.AddRow(append(append(append(key, injected), counters...), result)...)
	progressf(c.progress, "%s chaos %s: %s", c.name, strings.Trim(fmt.Sprint(key), "[]"), result)
	return nil
}

package bench

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/stats"
)

// AblationOptions parameterizes the design-choice ablation sweep
// (DESIGN.md §5): each variant runs the synthetic workload with one TCIO
// mechanism altered.
type AblationOptions struct {
	// Procs is the process count (kept moderate: ablations isolate
	// mechanisms, not scale).
	Procs int
	// LenSim / LenReal as in SweepOptions.
	LenSim, LenReal int
	// Progress, if non-nil, receives one line per completed variant.
	Progress func(string) `json:"-"`
}

// DefaultAblation returns a workstation-scale ablation configuration.
func DefaultAblation() AblationOptions {
	return AblationOptions{Procs: 64, LenSim: 1 << 20, LenReal: 4 << 10}
}

// ablationVariant is one row of the ablation table.
type ablationVariant struct {
	name   string
	detail string
	mutate func(*SyntheticConfig)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"baseline", "paper configuration", nil},
		{"no level-1 buffer", "one one-sided op per piece",
			func(c *SyntheticConfig) { c.Level1Disabled = true }},
		{"segment = stripe/4", "level-2 segments below the lock granularity",
			func(c *SyntheticConfig) { c.SegmentSizeMultiplier = 0.25 }},
		{"segment = 4 stripes", "level-2 segments above the lock granularity",
			func(c *SyntheticConfig) { c.SegmentSizeMultiplier = 4 }},
		{"demand populate", "reads load segments under the exclusive lock",
			func(c *SyntheticConfig) { c.DemandPopulate = true }},
		{"two-sided transfers", "exchange charged as matched send/recv",
			func(c *SyntheticConfig) { c.EmulateTwoSided = true }},
	}
}

// AggregatorSweep measures OCIO with different collective-buffering
// aggregator counts (ROMIO's cb_nodes; the paper ran with the feature
// disabled, i.e. every rank aggregating). It needs a direct workload run
// because SyntheticConfig has no OCIO knobs — the sweep reuses the
// Program 2 writer with SetAggregators applied through a wrapper file.
func AggregatorSweep(opts AblationOptions, counts []int) (stats.Table, error) {
	t := stats.Table{
		Title:   fmt.Sprintf("OCIO collective buffering: aggregator count sweep (%d processes)", opts.Procs),
		Headers: []string{"aggregators", "write MB/s", "read MB/s"},
		Host:    []string{"write MB/s", "read MB/s"},
		Params:  opts,
	}
	scale := int64(opts.LenSim / opts.LenReal)
	for _, n := range counts {
		env, err := NewEnv(scale)
		if err != nil {
			return t, err
		}
		cfg := SyntheticConfig{
			Method:          MethodOCIO,
			Procs:           opts.Procs,
			TypeArray:       []datatype.Type{datatype.Int, datatype.Double},
			LenArray:        opts.LenReal,
			SizeAccess:      1,
			Verify:          true,
			FileName:        fmt.Sprintf("aggsweep%d", n),
			OCIOAggregators: n,
		}
		res, err := RunSynthetic(env, cfg)
		if err != nil {
			return t, err
		}
		label := fmt.Sprint(n)
		if n == 0 {
			label = fmt.Sprintf("%d (all ranks, paper setting)", opts.Procs)
		}
		t.AddRow(label, phaseCell(res.Write), phaseCell(res.Read))
		progressf(opts.Progress, "aggregators=%-4s write=%s read=%s",
			label, phaseCell(res.Write), phaseCell(res.Read))
	}
	return t, nil
}

// Ablations runs every variant and returns the comparison table.
func Ablations(opts AblationOptions) (stats.Table, error) {
	t := stats.Table{
		Title:   fmt.Sprintf("TCIO design ablations (%d processes)", opts.Procs),
		Headers: []string{"variant", "write MB/s", "read MB/s", "notes"},
		Host:    []string{"write MB/s", "read MB/s"},
		Params:  opts,
	}
	scale := int64(opts.LenSim / opts.LenReal)
	for _, v := range ablationVariants() {
		env, err := NewEnv(scale)
		if err != nil {
			return t, err
		}
		cfg := SyntheticConfig{
			Method:     MethodTCIO,
			Procs:      opts.Procs,
			TypeArray:  []datatype.Type{datatype.Int, datatype.Double},
			LenArray:   opts.LenReal,
			SizeAccess: 1,
			Verify:     true,
			FileName:   "ablation",
		}
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		res, err := RunSynthetic(env, cfg)
		if err != nil {
			return t, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		t.AddRow(v.name, phaseCell(res.Write), phaseCell(res.Read), v.detail)
		progressf(opts.Progress, "ablation %-22s write=%s read=%s",
			v.name, phaseCell(res.Write), phaseCell(res.Read))
	}
	return t, nil
}

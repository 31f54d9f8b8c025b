package bench

import (
	"fmt"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
)

// This file regenerates the paper's tables and figures. Each function
// returns stats.Table values whose rows correspond to the points of the
// original plot; EXPERIMENTS.md records the measured outputs next to the
// paper's reported shapes.

// SweepOptions parameterizes the synthetic sweeps (Figs. 5-7).
type SweepOptions struct {
	// Procs are the x-axis process counts (paper: 64..1024).
	Procs []int
	// LenSim is the paper-scale LENarray in elements (paper: 4M).
	LenSim int
	// LenReal is the real element count the run materializes; the byte
	// scale is LenSim/LenReal.
	LenReal int
	// SizeAccess is SIZEaccess (paper: 1).
	SizeAccess int
	// Types is TYPEarray (paper: int, double). Element types have no JSON
	// form; Table II names them.
	Types []datatype.Type `json:"-"`
	// Verify turns on full byte verification during read-back.
	Verify bool
	// Progress, if non-nil, receives one line per completed point.
	Progress func(string) `json:"-"`
}

// DefaultSweep returns the paper's Table II configuration at a reduced
// real-element count suitable for a workstation run.
func DefaultSweep() SweepOptions {
	return SweepOptions{
		Procs:      []int{64, 128, 256, 512, 1024},
		LenSim:     4 << 20,
		LenReal:    4 << 10,
		SizeAccess: 1,
		Types:      []datatype.Type{datatype.Int, datatype.Double},
		Verify:     true,
	}
}

func (o SweepOptions) scale() int64 { return int64(o.LenSim / o.LenReal) }

// progressf sends one formatted progress line to progress, if set.
func progressf(progress func(string), format string, args ...any) {
	if progress != nil {
		progress(fmt.Sprintf(format, args...))
	}
}

// phaseCell formats one throughput cell, or the failure it stands for.
func phaseCell(pr PhaseResult) string {
	if pr.Failed {
		return "FAIL (" + pr.FailReason + ")"
	}
	return stats.FmtMBs(pr.MBs)
}

// Fig5 regenerates Figure 5: synthetic write and read throughput as a
// function of the number of processes, TCIO vs OCIO.
func Fig5(opts SweepOptions) (write, read stats.Table, results []Result, err error) {
	write = stats.Table{
		Title:   "Figure 5 (left): write throughput vs processes (MBytes/sec)",
		Headers: []string{"procs", "TCIO", "OCIO"},
		Host:    []string{"TCIO", "OCIO"},
		Params:  opts,
	}
	read = stats.Table{
		Title:   "Figure 5 (right): read throughput vs processes (MBytes/sec)",
		Headers: []string{"procs", "TCIO", "OCIO"},
		Host:    []string{"TCIO", "OCIO"},
		Params:  opts,
	}
	for _, p := range opts.Procs {
		row := map[Method]Result{}
		for _, m := range []Method{MethodTCIO, MethodOCIO} {
			env, e := NewEnv(opts.scale())
			if e != nil {
				return write, read, results, e
			}
			cfg := SyntheticConfig{
				Method:     m,
				Procs:      p,
				TypeArray:  opts.Types,
				LenArray:   opts.LenReal,
				SizeAccess: opts.SizeAccess,
				Verify:     opts.Verify,
				FileName:   fmt.Sprintf("fig5-%v-%d", m, p),
			}
			res, e := RunSynthetic(env, cfg)
			if e != nil {
				return write, read, results, e
			}
			row[m] = res
			results = append(results, res)
			progressf(opts.Progress, "fig5 %v procs=%d write=%s read=%s", m, p,
				phaseCell(res.Write), phaseCell(res.Read))
		}
		write.AddRow(fmt.Sprint(p), phaseCell(row[MethodTCIO].Write), phaseCell(row[MethodOCIO].Write))
		read.AddRow(fmt.Sprint(p), phaseCell(row[MethodTCIO].Read), phaseCell(row[MethodOCIO].Read))
	}
	return write, read, results, nil
}

// FileSizeSweepOptions parameterizes Figs. 6-7: fixed process count,
// varying dataset size.
type FileSizeSweepOptions struct {
	// Procs is fixed at 64 in the paper.
	Procs int
	// LenSims are the paper-scale LENarray values (1M..64M, i.e. file
	// sizes 768 MB..48 GB).
	LenSims []int
	// LenReal is the real element count per run.
	LenReal int
	// SizeAccess, Types, Verify, Progress: as in SweepOptions.
	SizeAccess int
	Types      []datatype.Type `json:"-"`
	Verify     bool
	Progress   func(string) `json:"-"`
}

// DefaultFileSizeSweep returns the paper's Fig. 6/7 configuration.
func DefaultFileSizeSweep() FileSizeSweepOptions {
	return FileSizeSweepOptions{
		Procs:      64,
		LenSims:    []int{1 << 20, 4 << 20, 16 << 20, 64 << 20},
		LenReal:    4 << 10,
		SizeAccess: 1,
		Types:      []datatype.Type{datatype.Int, datatype.Double},
		Verify:     true,
	}
}

// Fig6And7 regenerates Figures 6 and 7: write and read throughput vs file
// size at 64 processes. The 48 GB point reproduces the paper's headline
// failure: OCIO runs out of memory while TCIO completes.
func Fig6And7(opts FileSizeSweepOptions) (write, read stats.Table, results []Result, err error) {
	write = stats.Table{
		Title:   "Figure 6: write throughput vs file size, 64 processes (MBytes/sec)",
		Headers: []string{"file size", "TCIO", "OCIO"},
		Host:    []string{"TCIO", "OCIO"},
		Params:  opts,
	}
	read = stats.Table{
		Title:   "Figure 7: read throughput vs file size, 64 processes (MBytes/sec)",
		Headers: []string{"file size", "TCIO", "OCIO"},
		Host:    []string{"TCIO", "OCIO"},
		Params:  opts,
	}
	for _, lenSim := range opts.LenSims {
		row := map[Method]Result{}
		var fileSim int64
		for _, m := range []Method{MethodTCIO, MethodOCIO} {
			scale := int64(lenSim / opts.LenReal)
			env, e := NewEnv(scale)
			if e != nil {
				return write, read, results, e
			}
			cfg := SyntheticConfig{
				Method:     m,
				Procs:      opts.Procs,
				TypeArray:  opts.Types,
				LenArray:   opts.LenReal,
				SizeAccess: opts.SizeAccess,
				Verify:     opts.Verify,
				FileName:   fmt.Sprintf("fig67-%v-%d", m, lenSim),
			}
			fileSim = cfg.FileBytes() * scale
			res, e := RunSynthetic(env, cfg)
			if e != nil {
				return write, read, results, e
			}
			row[m] = res
			results = append(results, res)
			progressf(opts.Progress, "fig6/7 %v size=%s write=%s read=%s",
				m, stats.FmtBytes(fileSim), phaseCell(res.Write), phaseCell(res.Read))
		}
		label := stats.FmtBytes(fileSim)
		write.AddRow(label, phaseCell(row[MethodTCIO].Write), phaseCell(row[MethodOCIO].Write))
		read.AddRow(label, phaseCell(row[MethodTCIO].Read), phaseCell(row[MethodOCIO].Read))
	}
	return write, read, results, nil
}

// ARTOptions parameterizes the cosmology-application experiment
// (Figs. 9-10).
type ARTOptions struct {
	// Procs are the x-axis process counts.
	Procs []int
	// Trees is the number of FTT segments (paper Table IV: 1024).
	Trees int
	// Vars is the number of per-cell variables.
	Vars int
	// MuCells, SigmaCells, Seed define the Table IV size distribution.
	MuCells, SigmaCells float64
	Seed                int64
	// Scale is the environment byte scale.
	Scale int64
	// VanillaCutoff is the paper's ">90 minutes" rule: vanilla MPI-IO
	// points whose simulated runtime exceeds it are reported as such.
	VanillaCutoff simtime.Duration
	// Progress, if non-nil, receives one line per completed point.
	Progress func(string) `json:"-"`
}

// DefaultART returns the paper's §V.C configuration at workstation scale.
func DefaultART() ARTOptions {
	return ARTOptions{
		Procs:      []int{64, 128, 256, 512, 1024},
		Trees:      art.TableIV.Segments,
		Vars:       2,
		MuCells:    art.TableIV.Mu,
		SigmaCells: art.TableIV.Sigma,
		Seed:       art.TableIV.Seed,
		// ART records are materialized at full size (a 2048-cell tree with
		// two variables is ~35 KB), so no byte scaling is needed — and
		// scaling would distort the piece-size distribution that drives
		// the vanilla-MPI-IO penalty.
		Scale:         1,
		VanillaCutoff: simtime.Duration(90) * 60 * simtime.Second,
	}
}

// ARTResult is one (library, procs) point of Figs. 9-10.
type ARTResult struct {
	Library    art.Library
	Procs      int
	SimBytes   int64
	WriteTime  simtime.Duration
	ReadTime   simtime.Duration
	WriteMBs   float64
	ReadMBs    float64
	Failed     bool
	FailReason string
}

// runART measures one checkpoint dump + restart.
func runART(opts ARTOptions, lib art.Library, procs int) (ARTResult, error) {
	res := ARTResult{Library: lib, Procs: procs}
	env, err := NewEnv(opts.Scale)
	if err != nil {
		return res, err
	}
	name := fmt.Sprintf("art-%v-%d", lib, procs)
	mkTrees := func(c *mpi.Comm) []*art.Tree {
		sizes := art.SegmentSizes(opts.Trees, opts.MuCells, opts.SigmaCells, opts.Seed)
		var out []*art.Tree
		for _, id := range art.OwnedBy(opts.Trees, c.Size(), c.Rank()) {
			rng := art.TreeRNG(opts.Seed, int64(id))
			out = append(out, art.Generate(int64(id), sizes[id], opts.Vars, rng))
		}
		return out
	}

	// Dump phase.
	rep, err := mpi.Run(env.world(procs, false), func(c *mpi.Comm) error {
		return art.Dump(c, lib, name, mkTrees(c), opts.Trees, 0)
	})
	if err != nil {
		res.Failed, res.FailReason = true, failReason(err)
		return res, nil
	}
	res.WriteTime = rep.MaxTime.Sub(0)
	res.SimBytes = env.FS.Open(name).Size() * opts.Scale
	res.WriteMBs = stats.ThroughputMBs(res.SimBytes, res.WriteTime)

	// Restart phase: read back and verify every tree.
	env.FS.Reset()
	rep, err = mpi.Run(env.world(procs, false), func(c *mpi.Comm) error {
		want := mkTrees(c)
		got, err := art.Restore(c, lib, name)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("restored %d trees, want %d", len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return fmt.Errorf("tree %d corrupted across dump/restart", want[i].ID)
			}
		}
		return nil
	})
	if err != nil {
		res.Failed, res.FailReason = true, failReason(err)
		return res, nil
	}
	res.ReadTime = rep.MaxTime.Sub(0)
	res.ReadMBs = stats.ThroughputMBs(res.SimBytes, res.ReadTime)
	return res, nil
}

// artCell formats one Fig. 9/10 cell, honouring the paper's 90-minute rule.
func artCell(r ARTResult, t simtime.Duration, mbs float64, cutoff simtime.Duration) string {
	if r.Failed {
		return "FAIL (" + r.FailReason + ")"
	}
	if cutoff > 0 && t > cutoff {
		return fmt.Sprintf("omitted (>%v)", cutoff)
	}
	return stats.FmtMBs(mbs)
}

// Fig9And10 regenerates Figures 9 and 10: ART checkpoint write and restart
// read throughput, TCIO vs vanilla MPI-IO.
func Fig9And10(opts ARTOptions) (write, read stats.Table, results []ARTResult, err error) {
	write = stats.Table{
		Title:   "Figure 9: ART write throughput vs processes (MBytes/sec)",
		Headers: []string{"procs", "TCIO", "MPI-IO"},
		Host:    []string{"TCIO", "MPI-IO"},
		Params:  opts,
	}
	read = stats.Table{
		Title:   "Figure 10: ART read throughput vs processes (MBytes/sec)",
		Headers: []string{"procs", "TCIO", "MPI-IO"},
		Host:    []string{"TCIO", "MPI-IO"},
		Params:  opts,
	}
	for _, p := range opts.Procs {
		row := map[art.Library]ARTResult{}
		for _, lib := range []art.Library{art.LibTCIO, art.LibVanilla} {
			r, e := runART(opts, lib, p)
			if e != nil {
				return write, read, results, e
			}
			row[lib] = r
			results = append(results, r)
			progressf(opts.Progress, "fig9/10 %v procs=%d write=%.1f MB/s read=%.1f MB/s",
				lib, p, r.WriteMBs, r.ReadMBs)
		}
		write.AddRow(fmt.Sprint(p),
			artCell(row[art.LibTCIO], row[art.LibTCIO].WriteTime, row[art.LibTCIO].WriteMBs, 0),
			artCell(row[art.LibVanilla], row[art.LibVanilla].WriteTime, row[art.LibVanilla].WriteMBs, opts.VanillaCutoff))
		read.AddRow(fmt.Sprint(p),
			artCell(row[art.LibTCIO], row[art.LibTCIO].ReadTime, row[art.LibTCIO].ReadMBs, 0),
			artCell(row[art.LibVanilla], row[art.LibVanilla].ReadTime, row[art.LibVanilla].ReadMBs, opts.VanillaCutoff))
	}
	return write, read, results, nil
}

// Table1 renders the paper's Table I: the benchmark's configuration
// parameters.
func Table1() stats.Table {
	t := stats.Table{
		Title:   "Table I: configuration parameters",
		Headers: []string{"symbol", "description"},
	}
	t.AddRow("method", "0: OCIO; 1: TCIO; 2: MPI-IO")
	t.AddRow("NUMarray", "number of arrays within each process")
	t.AddRow("TYPEarray", "array element types, comma separated (c,s,i,f,d)")
	t.AddRow("LENarray", "length of arrays")
	t.AddRow("SIZEaccess", "array elements per I/O access")
	return t
}

// Table2 renders the paper's Table II: the Fig. 5 experiment configuration.
func Table2(opts SweepOptions) stats.Table {
	t := stats.Table{
		Title:   "Table II: experiment configuration",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("NUMarray", fmt.Sprint(len(opts.Types)))
	names := ""
	for i, ty := range opts.Types {
		if i > 0 {
			names += ","
		}
		names += ty.String()
	}
	t.AddRow("TYPEarray", names)
	t.AddRow("LENarray", fmt.Sprintf("%d (simulated; %d materialized)", opts.LenSim, opts.LenReal))
	t.AddRow("SIZEaccess", fmt.Sprint(opts.SizeAccess))
	t.AddRow("NUMproc", fmt.Sprint(opts.Procs))
	return t
}

// Table3 renders the paper's Table III: the qualitative OCIO/TCIO
// comparison, with the lines-of-code row measured from the actual
// Program 2/3 sources.
func Table3() stats.Table {
	t := stats.Table{
		Title:   "Table III: comparison between OCIO and TCIO",
		Headers: []string{"aspect", "original collective I/O", "transparent collective I/O"},
	}
	loc2, loc3 := ProgramLines()
	t.AddRow("application-level buffer", "yes", "no")
	t.AddRow("file view", "yes", "no")
	t.AddRow("lines of code (write path)", fmt.Sprintf("many (%d)", loc2), fmt.Sprintf("few (%d)", loc3))
	t.AddRow("memory efficiency", "poor (~2x data size)", "high (data size + one segment)")
	t.AddRow("restriction", "patterns expressible as derived datatypes", "any POSIX-like access pattern")
	return t
}

// Table4 renders the paper's Table IV: the ART segment-size distribution.
func Table4() stats.Table {
	t := stats.Table{
		Title:   "Table IV: segments generation",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("distribution", "Normal")
	t.AddRow("mu", fmt.Sprint(art.TableIV.Mu))
	t.AddRow("sigma", fmt.Sprint(art.TableIV.Sigma))
	t.AddRow("seed", fmt.Sprint(art.TableIV.Seed))
	t.AddRow("segments", fmt.Sprint(art.TableIV.Segments))
	sizes := art.SegmentSizes(art.TableIV.Segments, art.TableIV.Mu, art.TableIV.Sigma, art.TableIV.Seed)
	var s stats.Sample
	for _, v := range sizes {
		s.Add(float64(v))
	}
	t.AddRow("measured mean", fmt.Sprintf("%.1f cells", s.Mean()))
	t.AddRow("measured stddev", fmt.Sprintf("%.1f cells", s.Stddev()))
	return t
}

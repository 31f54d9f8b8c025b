// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§V) on the simulated cluster.
//
// The synthetic benchmark reproduces the paper's workload (Table I): each
// of P processes holds NUMarray in-memory arrays of LENarray elements and
// writes them to a shared file interleaved round-robin — process p's k-th
// block of SIZEaccess elements per array lands at file block k*P + p. Three
// methods are compared (Table I's `method` parameter): OCIO (ROMIO two-
// phase collective I/O, Program 2), TCIO (Program 3), and vanilla MPI-IO.
//
// Paper-scale datasets are mapped onto test-scale buffers with the
// machine's ByteScale: algorithms move realBytes = simBytes/scale, while
// the network, file system, and memory models charge simulated bytes. The
// stripe size shrinks by the same factor, so message and request counts —
// the drivers of the performance shapes — match paper scale exactly.
package bench

import (
	"errors"
	"fmt"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
)

// Method is Table I's `method` parameter.
type Method int

// Benchmark methods.
const (
	// MethodOCIO is the original collective I/O (ROMIO two-phase).
	MethodOCIO Method = iota
	// MethodTCIO is transparent collective I/O.
	MethodTCIO
	// MethodVanilla is vanilla MPI-IO: independent per-piece accesses.
	MethodVanilla
)

// String names the method as the paper does.
func (m Method) String() string {
	switch m {
	case MethodOCIO:
		return "OCIO"
	case MethodTCIO:
		return "TCIO"
	case MethodVanilla:
		return "MPI-IO"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SyntheticConfig mirrors the paper's Table I configuration parameters.
type SyntheticConfig struct {
	// Method selects the I/O implementation under test.
	Method Method
	// Procs is NUMproc.
	Procs int
	// TypeArray lists the per-array element types (Table I: "i,d" means
	// one int array and one double array). Its length is NUMarray.
	TypeArray []datatype.Type
	// LenArray is LENarray: elements per array per process, in real
	// elements (multiply by the machine's ByteScale for simulated size).
	LenArray int
	// SizeAccess is SIZEaccess: array elements per I/O access.
	SizeAccess int
	// Verify makes readers check every byte against the generator.
	Verify bool
	// FileName is the shared file's name.
	FileName string

	// TCIO ablation knobs (effective with MethodTCIO only; see the
	// corresponding tcio.Config switches).
	Level1Disabled        bool
	DemandPopulate        bool
	EmulateTwoSided       bool
	SegmentSizeMultiplier float64 // level-2 segment size relative to the stripe (0 = 1)
	// DrainWorkers bounds TCIO's per-OST worker fan-out for file system
	// batches (drain, populate, preload). 0 or 1 means serial.
	DrainWorkers int

	// OCIOAggregators enables ROMIO-style collective buffering for
	// MethodOCIO: only this many ranks aggregate (0 = all ranks, the
	// paper's setting).
	OCIOAggregators int
}

// blockSize is one process's bytes per iteration: all arrays' SIZEaccess
// elements.
func (c SyntheticConfig) blockSize() int64 {
	var n int64
	for _, t := range c.TypeArray {
		n += t.Size() * int64(c.SizeAccess)
	}
	return n
}

func (c SyntheticConfig) iters() int { return c.LenArray / c.SizeAccess }

// FileBytes is the shared file's size in real bytes.
func (c SyntheticConfig) FileBytes() int64 {
	return c.blockSize() * int64(c.iters()) * int64(c.Procs)
}

func (c SyntheticConfig) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("bench: %d procs", c.Procs)
	}
	if len(c.TypeArray) == 0 {
		return errors.New("bench: no arrays")
	}
	if c.SizeAccess < 1 || c.LenArray < 1 || c.LenArray%c.SizeAccess != 0 {
		return fmt.Errorf("bench: LenArray=%d SizeAccess=%d", c.LenArray, c.SizeAccess)
	}
	if c.FileName == "" {
		return errors.New("bench: no file name")
	}
	return nil
}

// ParseTypes resolves Table I's TYPEarray string ("i,d") to element types.
func ParseTypes(spec string) ([]datatype.Type, error) {
	var out []datatype.Type
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == ',' {
			t, err := datatype.ByName(spec[start:i])
			if err != nil {
				return nil, err
			}
			out = append(out, t)
			start = i + 1
		}
	}
	return out, nil
}

// chargePieces charges the application-level cost of touching n pieces
// (e.g. Program 2's combine/scatter loops), scaled like all per-item costs.
func chargePieces(c *mpi.Comm, n int) {
	c.Compute(simtime.Duration(150) * simtime.Duration(n) * simtime.Duration(c.Machine().ByteScale))
}

// element generates the deterministic byte at position b of element e of
// array j on the given rank — the ground truth readers verify against.
func element(rank, j, e, b int) byte {
	return byte(rank*131 + j*67 + e*29 + b*11 + 7)
}

// makeArray materializes one rank's array j, charging it to the rank's
// memory share (the application's own data counts toward the paper's
// memory budget analysis).
func makeArray(c *mpi.Comm, cfg SyntheticConfig, j int) ([]byte, error) {
	width := int(cfg.TypeArray[j].Size())
	buf, err := c.Malloc(int64(cfg.LenArray) * int64(width))
	if err != nil {
		return nil, fmt.Errorf("application array %d: %w", j, err)
	}
	for e := 0; e < cfg.LenArray; e++ {
		for b := 0; b < width; b++ {
			buf[e*width+b] = element(c.Rank(), j, e, b)
		}
	}
	return buf, nil
}

// verifyArrays checks read-back arrays against the generator.
func verifyArrays(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	for j, arr := range arrays {
		width := int(cfg.TypeArray[j].Size())
		for e := 0; e < cfg.LenArray; e++ {
			for b := 0; b < width; b++ {
				if got, want := arr[e*width+b], element(c.Rank(), j, e, b); got != want {
					return fmt.Errorf("rank %d array %d element %d byte %d: got %#x want %#x",
						c.Rank(), j, e, b, got, want)
				}
			}
		}
	}
	return nil
}

// Env is a simulated environment scaled so that paper-sized datasets fit a
// test process: real sizes are simulated sizes divided by Scale.
type Env struct {
	Machine cluster.Machine
	FS      *pfs.FileSystem
	Scale   int64
	// Faults, when non-nil, arms chaos injection across the environment's
	// hardware for every run (see newEnv).
	Faults *faults.Injector
}

// NewEnv builds a Lonestar-like environment with the given byte scale.
// The file system stripe (and hence TCIO's default segment size) shrinks by
// the same factor, preserving message and request counts.
func NewEnv(scale int64) (*Env, error) {
	if scale < 1 || (1<<20)%scale != 0 {
		return nil, fmt.Errorf("bench: scale %d must divide 1 MiB", scale)
	}
	m := cluster.Lonestar()
	m.ByteScale = scale
	fscfg := pfs.DefaultConfig()
	fscfg.ByteScale = scale
	fscfg.StripeSize = (1 << 20) / scale
	fscfg.ReadAhead = fscfg.StripeSize
	return &Env{Machine: m, FS: pfs.New(fscfg), Scale: scale}, nil
}

// newEnv is NewEnv with the file striped over stripe OSTs (0 or 1 keeps the
// paper's single OST) and, when inj is non-nil, the file system, network,
// and memory accountant all injecting from inj.
func newEnv(scale int64, stripe int, inj *faults.Injector) (*Env, error) {
	env, err := NewEnv(scale)
	if err != nil {
		return nil, err
	}
	fscfg := env.FS.Config()
	fscfg.Faults = inj
	if stripe > 1 {
		fscfg.StripeCount = stripe
	}
	env.FS = pfs.New(fscfg)
	env.Faults = inj
	return env, nil
}

// world is the configuration of a procs-rank run on the environment's
// hardware; enforce arms the per-node memory limit.
func (e *Env) world(procs int, enforce bool) mpi.Config {
	return mpi.Config{Procs: procs, Machine: e.Machine, FS: e.FS, Faults: e.Faults, EnforceMemory: enforce}
}

// PhaseResult captures one phase (write or read) of a benchmark run.
type PhaseResult struct {
	Method     Method
	Procs      int
	SimBytes   int64 // data moved, in simulated bytes
	Time       simtime.Duration
	MBs        float64 // aggregate throughput, MBytes/sec (simulated)
	Failed     bool
	FailReason string
	Net        netsim.Stats
	FS         pfs.Stats
	PeakMemory int64 // simulated bytes, max over ranks
	// AllocRetries counts transient allocation pressure absorbed by the
	// runtime's backoff (chaos runs only).
	AllocRetries int64
}

// Result is a full write+read benchmark run.
type Result struct {
	Write PhaseResult
	Read  PhaseResult
}

// RunSynthetic executes the write phase and then the read phase of the
// synthetic benchmark in the given environment, with memory enforcement on
// (the paper's Fig. 6/7 failure mode depends on it).
func RunSynthetic(env *Env, cfg SyntheticConfig) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Write = runPhase(env, cfg, true)
	if res.Write.Failed {
		// The paper still reads the dataset written by a working run when
		// the writer fails; here reads require a written file, so mark the
		// read phase failed for the same reason.
		res.Read = res.Write
		return res, nil
	}
	res.Read = runPhase(env, cfg, false)
	return res, nil
}

// runPhase runs one direction of the benchmark in a fresh world that
// shares the environment's file system.
func runPhase(env *Env, cfg SyntheticConfig, write bool) PhaseResult {
	env.FS.Reset()
	pr := PhaseResult{
		Method:   cfg.Method,
		Procs:    cfg.Procs,
		SimBytes: cfg.FileBytes() * env.Scale,
	}
	pr.record(mpi.Run(env.world(cfg.Procs, true), func(c *mpi.Comm) error {
		if write {
			return writeWorkload(c, cfg)
		}
		return readWorkload(c, cfg)
	}))
	return pr
}

// record fills the phase's outcome from its world's report: the failure
// reason, or the makespan, throughput and per-layer counters. It reports
// whether the phase completed.
func (pr *PhaseResult) record(rep mpi.Report, err error) bool {
	if err != nil {
		pr.Failed, pr.FailReason = true, failReason(err)
		return false
	}
	pr.Time = rep.MaxTime.Sub(0)
	pr.MBs = stats.ThroughputMBs(pr.SimBytes, pr.Time)
	pr.Net, pr.FS = rep.Net, rep.FS
	pr.PeakMemory, pr.AllocRetries = rep.PeakMemory, rep.AllocRetries
	return true
}

// Result is the phase's result cell: "ok" or the failure reason.
func (pr PhaseResult) Result() string {
	if pr.Failed {
		return pr.FailReason
	}
	return "ok"
}

func failReason(err error) string {
	if errors.Is(err, cluster.ErrOutOfMemory) {
		return "out of memory"
	}
	if errors.Is(err, faults.ErrExhaustedRetries) {
		return "retries exhausted"
	}
	if errors.Is(err, mpi.ErrAborted) {
		return "aborted"
	}
	return err.Error()
}

// writeWorkload dispatches to the method's writer.
func writeWorkload(c *mpi.Comm, cfg SyntheticConfig) error {
	arrays := make([][]byte, len(cfg.TypeArray))
	for j := range arrays {
		a, err := makeArray(c, cfg, j)
		if err != nil {
			return err
		}
		arrays[j] = a
	}
	defer func() {
		for _, a := range arrays {
			c.Free(a)
		}
	}()
	switch cfg.Method {
	case MethodOCIO:
		return Program2Write(c, cfg, arrays)
	case MethodTCIO:
		return Program3Write(c, cfg, arrays)
	case MethodVanilla:
		return VanillaWrite(c, cfg, arrays)
	default:
		return fmt.Errorf("bench: unknown method %v", cfg.Method)
	}
}

// readWorkload dispatches to the method's reader and verifies if asked.
func readWorkload(c *mpi.Comm, cfg SyntheticConfig) error {
	arrays := make([][]byte, len(cfg.TypeArray))
	for j := range arrays {
		width := cfg.TypeArray[j].Size()
		a, err := c.Malloc(int64(cfg.LenArray) * width)
		if err != nil {
			return fmt.Errorf("application array %d: %w", j, err)
		}
		arrays[j] = a
	}
	defer func() {
		for _, a := range arrays {
			c.Free(a)
		}
	}()
	var err error
	switch cfg.Method {
	case MethodOCIO:
		err = Program2Read(c, cfg, arrays)
	case MethodTCIO:
		err = Program3Read(c, cfg, arrays)
	case MethodVanilla:
		err = VanillaRead(c, cfg, arrays)
	default:
		err = fmt.Errorf("bench: unknown method %v", cfg.Method)
	}
	if err != nil {
		return err
	}
	if cfg.Verify {
		return verifyArrays(c, cfg, arrays)
	}
	return nil
}

package main

// The four workloads. Each builds its inputs once from the run seed
// (setup) and then runs whole iterations: one write phase and one
// byte-verified read phase in fresh simulated hardware, so no iteration
// can pass on bytes an earlier one left behind.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/bench"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

// options are the knobs a run hands its workload.
type options struct {
	// seed derives every generated input.
	seed int64
	// corrupt flips one read-back byte before verification: the failure
	// the correctness gate must catch (tests only).
	corrupt bool
}

// workload is one named set of inputs.
type workload struct {
	name string
	// setup generates the inputs; gen is the part of its time spent in
	// input generators.
	setup func(o options) (r runner, gen time.Duration, err error)
	// genCall names the generator call gen times, "" when it is the
	// benchmark's own.
	genCall string
}

// runner runs iterations over one set of generated inputs; tr is nil in
// untraced iterations.
type runner interface {
	iterate(tr *tracer) iteration
}

var workloads = []workload{
	{"synthetic-interleaved", newSynthetic, ""},
	{"art-checkpoint", newARTCheckpoint, "art.generate"},
	{"delegated-shared-read", newDelegatedRead, ""},
	{"journaled-checkpoint", newJournaled, ""},
}

// phase is one direction of an iteration.
type phase struct {
	wall     time.Duration    // host wall time, verification excluded
	vt       simtime.Duration // virtual makespan
	simBytes int64
	peakMem  int64 // simulated bytes, largest per-rank high-water mark
	err      error
}

// iteration is the outcome of one write + read.
type iteration struct {
	write, read phase
	mismatches  int
	counters    counters
}

// failedPhases counts the iteration's failed phases: an error return, or
// for the read phase any byte mismatch. A failed write fails its read too.
func (it iteration) failedPhases() int {
	switch {
	case it.write.err != nil:
		return 2
	case it.read.err != nil || it.mismatches > 0:
		return 1
	}
	return 0
}

// firstError describes the iteration's first failure, "" when none.
func (it iteration) firstError() string {
	switch {
	case it.write.err != nil:
		return "write: " + it.write.err.Error()
	case it.read.err != nil:
		return "read: " + it.read.err.Error()
	case it.mismatches > 0:
		return fmt.Sprintf("read: %d bytes differ from the generator", it.mismatches)
	}
	return ""
}

// fill writes the pseudo-random stream keyed by key into buf (splitmix64).
// Every payload the benchmark writes comes from here.
func fill(buf []byte, key uint64) {
	var w [8]byte
	for i := 0; i < len(buf); i += 8 {
		key += 0x9e3779b97f4a7c15
		z := key
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		copy(buf[i:], w[:])
	}
}

// streamKey derives a payload stream key from the seed and an index path.
func streamKey(seed int64, path ...int) uint64 {
	k := uint64(seed)
	for _, p := range path {
		k = k*0x100000001b3 ^ uint64(p+1)
	}
	return k
}

// mismatched counts the bytes of got that differ from want. With corrupt
// set it first flips one byte of got.
func mismatched(got, want []byte, corrupt bool) int {
	if corrupt && len(got) > 0 {
		got[0] ^= 0xff
	}
	if bytes.Equal(got, want) {
		return 0
	}
	n := len(got) - len(want)
	if n < 0 {
		n = -n
	}
	for i := range got {
		if i < len(want) && got[i] != want[i] {
			n++
		}
	}
	return n
}

// verify runs check, which counts mismatched read-back bytes, as the
// iteration's verification span: timed apart from the read phase.
func verify(tr *tracer, it *iteration, check func() int) {
	s := tr.hostBegin()
	it.mismatches = check()
	tr.hostEnd("bench.verify", s)
}

// phaseBarrier is the barrier the benchmark adds at each phase end; its
// wait is the time a rank spends on slower ranks.
func phaseBarrier(c *mpi.Comm, m *meter) error {
	m.begin("mpi.phase_barrier")
	defer m.end()
	return c.Barrier()
}

// runPhase runs one phase as one mpi.Run and fills in p.
func runPhase(tr *tracer, p *phase, it *iteration, scale int64, cfg mpi.Config, body func(*mpi.Comm, *meter) error) {
	// Collect the garbage earlier phases and the benchmark itself left,
	// so a phase's wall time carries only the collections its own
	// allocations cause.
	runtime.GC()
	res := tr.run(cfg, body)
	p.wall, p.vt, p.peakMem, p.err = res.end.Sub(res.start), res.rep.MaxTime.Sub(0), res.rep.PeakMemory, res.err
	it.counters.addReport(res.rep, scale)
}

// --- synthetic-interleaved ---------------------------------------------

// synthetic is the paper's Program 3 through TCIO defaults: every rank
// writes its i,d arrays one element per call, interleaved round-robin
// with all other ranks, then reads them back the same way. About a
// million 4-8 B calls per iteration make per-call costs dominate.
type synthetic struct {
	o       options
	procs   int
	scale   int64
	widths  []int
	lenArr  int
	arrays  [][][]byte // [rank][array], generated
	readBuf [][][]byte
}

func newSynthetic(o options) (runner, time.Duration, error) {
	w := &synthetic{o: o, procs: 64, scale: 1024, lenArr: 4096}
	for _, name := range []string{"i", "d"} {
		t, err := datatype.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		w.widths = append(w.widths, int(t.Size()))
	}
	t0 := time.Now()
	w.arrays = make([][][]byte, w.procs)
	w.readBuf = make([][][]byte, w.procs)
	for r := range w.arrays {
		for j, width := range w.widths {
			a := make([]byte, w.lenArr*width)
			fill(a, streamKey(o.seed, r, j))
			w.arrays[r] = append(w.arrays[r], a)
			w.readBuf[r] = append(w.readBuf[r], make([]byte, len(a)))
		}
	}
	return w, time.Since(t0), nil
}

func (w *synthetic) blockSize() int64 {
	var n int
	for _, width := range w.widths {
		n += width
	}
	return int64(n)
}

// access calls op on every element of rank's arrays at its interleaved
// file position, timing each call as name.
func (w *synthetic) access(c *mpi.Comm, m *meter, name string, arrays [][]byte, op func(off int64, b []byte) error) error {
	block, procs := w.blockSize(), int64(c.Size())
	for i := 0; i < w.lenArr; i++ {
		pos := int64(c.Rank())*block + int64(i)*block*procs
		for j, a := range arrays {
			width := w.widths[j]
			s := m.stamp()
			err := op(pos, a[i*width:(i+1)*width])
			m.call(name, s)
			if err != nil {
				return err
			}
			pos += int64(width)
		}
	}
	return nil
}

func (w *synthetic) iterate(tr *tracer) iteration {
	var it iteration
	env, err := bench.NewEnv(w.scale)
	if err != nil {
		it.write.err = err
		return it
	}
	const name = "synthetic.dat"
	fileBytes := w.blockSize() * int64(w.lenArr) * int64(w.procs)
	stripe := env.FS.Config().StripeSize
	cfg := tcio.Config{SegmentSize: stripe, NumSegments: int((fileBytes + int64(w.procs)*stripe - 1) / (int64(w.procs) * stripe))}
	mcfg := mpi.Config{Procs: w.procs, Machine: env.Machine, FS: env.FS, EnforceMemory: true}
	appBytes := env.Machine.Scale(w.blockSize() * int64(w.lenArr))
	stats := make([]tcio.Stats, w.procs)

	rankBody := func(mode tcio.Mode, arrays func(r int) [][]byte) func(*mpi.Comm, *meter) error {
		return func(c *mpi.Comm, m *meter) error {
			// The application arrays count toward the rank's memory, as in
			// the paper's footprint analysis.
			if err := c.Reserve(appBytes); err != nil {
				return err
			}
			defer c.Release(appBytes)
			m.begin("tcio.open")
			f, err := tcio.Open(c, name, mode, cfg)
			m.end()
			if err != nil {
				return err
			}
			op, call := f.WriteAt, "tcio.writeat"
			if mode == tcio.ReadMode {
				op, call = f.ReadAt, "tcio.readat"
			}
			if err := w.access(c, m, call, arrays(c.Rank()), op); err != nil {
				return err
			}
			m.begin("tcio.close")
			err = f.Close()
			m.end()
			stats[c.Rank()] = f.Stats()
			if err != nil {
				return err
			}
			return phaseBarrier(c, m)
		}
	}

	env.FS.Reset()
	it.write.simBytes = env.Machine.Scale(fileBytes)
	runPhase(tr, &it.write, &it, w.scale, mcfg, rankBody(tcio.WriteMode, func(r int) [][]byte { return w.arrays[r] }))
	it.counters.addTCIO(stats)
	if it.write.err != nil {
		return it
	}
	clear(stats)
	for _, bufs := range w.readBuf {
		for _, b := range bufs {
			clear(b)
		}
	}
	env.FS.Reset()
	it.read.simBytes = it.write.simBytes
	runPhase(tr, &it.read, &it, w.scale, mcfg, rankBody(tcio.ReadMode, func(r int) [][]byte { return w.readBuf[r] }))
	it.counters.addTCIO(stats)
	if it.read.err != nil {
		return it
	}
	verify(tr, &it, func() int {
		n := 0
		for r := range w.arrays {
			for j := range w.arrays[r] {
				n += mismatched(w.readBuf[r][j], w.arrays[r][j], w.o.corrupt && r == 0 && j == 0)
			}
		}
		return n
	})
	return it
}

// --- art-checkpoint ----------------------------------------------------

// artCheckpoint dumps and restores the paper's ART workload (Table IV)
// through TCIO: about 20k variable-size calls move about 35 MB, so
// per-byte costs dominate.
type artCheckpoint struct {
	o      options
	procs  int
	ntrees int
	trees  [][]*art.Tree // [rank], generated
	got    [][]*art.Tree
}

func newARTCheckpoint(o options) (runner, time.Duration, error) {
	w := &artCheckpoint{o: o, procs: 64, ntrees: art.TableIV.Segments}
	const vars = 2
	t0 := time.Now()
	sizes := art.SegmentSizes(w.ntrees, art.TableIV.Mu, art.TableIV.Sigma, o.seed)
	w.trees = make([][]*art.Tree, w.procs)
	w.got = make([][]*art.Tree, w.procs)
	for r := range w.trees {
		for _, id := range art.OwnedBy(w.ntrees, w.procs, r) {
			w.trees[r] = append(w.trees[r], art.Generate(int64(id), sizes[id], vars, art.TreeRNG(o.seed, int64(id))))
		}
	}
	return w, time.Since(t0), nil
}

func (w *artCheckpoint) iterate(tr *tracer) iteration {
	var it iteration
	const scale = 1 // ART records are materialized at full size
	env, err := bench.NewEnv(scale)
	if err != nil {
		it.write.err = err
		return it
	}
	const name = "art.ckpt"
	mcfg := mpi.Config{Procs: w.procs, Machine: env.Machine, FS: env.FS, EnforceMemory: true}

	env.FS.Reset()
	runPhase(tr, &it.write, &it, scale, mcfg, func(c *mpi.Comm, m *meter) error {
		m.begin("art.dump")
		err := art.Dump(c, art.LibTCIO, name, w.trees[c.Rank()], w.ntrees, 0)
		m.end()
		if err != nil {
			return err
		}
		return phaseBarrier(c, m)
	})
	if it.write.err != nil {
		return it
	}
	it.write.simBytes = env.FS.Open(name).Size() * scale
	it.read.simBytes = it.write.simBytes

	env.FS.Reset()
	runPhase(tr, &it.read, &it, scale, mcfg, func(c *mpi.Comm, m *meter) error {
		m.begin("art.restore")
		got, err := art.Restore(c, art.LibTCIO, name)
		m.end()
		w.got[c.Rank()] = got
		if err != nil {
			return err
		}
		return phaseBarrier(c, m)
	})
	if it.read.err != nil {
		return it
	}
	verify(tr, &it, func() int {
		n := 0
		for r, want := range w.trees {
			got := w.got[r]
			if w.o.corrupt && r == 0 && len(got) > 0 {
				v := &got[0].Levels[0][0].Vals[0]
				*v = math.Float64frombits(math.Float64bits(*v) ^ 0xff)
			}
			w.got[r] = nil // not kept alive into the next iteration
			if len(got) != len(want) {
				n += len(want)
				continue
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					n++
				}
			}
		}
		return n
	})
	return it
}

// --- delegated-shared-read ---------------------------------------------

// delegatedRead runs the delegation tier: 16 clients write their strided
// 2 KiB pieces once, then every client reads the whole file (shared
// N-to-1) over several passes. The work is in the server cache, the
// read-intent merge and the RPC path; TCIO windows and pfs are nearly idle.
type delegatedRead struct {
	o       options
	clients int
	servers int
	scale   int64
	segSize int64
	segs    int // segments per client
	piece   int64
	passes  int
	image   []byte   // the whole file, generated
	bufs    [][]byte // [client] last-pass read-back
}

func newDelegatedRead(o options) (runner, time.Duration, error) {
	w := &delegatedRead{o: o, clients: 16, servers: 2, scale: 16, segSize: 16 << 10, segs: 4, piece: 2 << 10, passes: 8}
	t0 := time.Now()
	w.image = make([]byte, w.segSize*int64(w.segs*w.clients))
	fill(w.image, streamKey(o.seed))
	w.bufs = make([][]byte, w.clients)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, len(w.image))
	}
	return w, time.Since(t0), nil
}

func (w *delegatedRead) iterate(tr *tracer) iteration {
	var it iteration
	env, err := bench.NewEnv(w.scale)
	if err != nil {
		it.write.err = err
		return it
	}
	const name = "delegated.dat"
	procs := w.clients + w.servers
	fileBlocks := int64(len(w.image)) / (4 * w.segSize) // default domain block: four segments
	col := &delegate.Collector{}
	cfg := delegate.Config{
		ServerRanks:       w.servers,
		ServerCacheBlocks: int(2 * fileBlocks),
		ReadQuantum:       4 << 10,
		TCIO: tcio.Config{
			SegmentSize:    w.segSize,
			NumSegments:    w.segs,
			DemandPopulate: true,
			CollectiveRead: true,
		},
		Collect: col,
	}
	pieces := int64(len(w.image)) / w.piece
	// Each client records when it returned from the write-phase Close:
	// the latest return is the boundary between the two phases.
	var mu sync.Mutex
	var boundaryWall time.Time
	var boundaryVT simtime.Time
	clientStats := make([]delegate.Stats, procs)

	client := func(t *delegate.Tier, m *meter) error {
		c := t.Comm()
		// The client's share of the file and its read buffer are the
		// application's memory.
		appBytes := env.Machine.Scale(int64(len(w.image)/t.NumClients() + len(w.image)))
		if err := c.Reserve(appBytes); err != nil {
			return err
		}
		defer c.Release(appBytes)
		m.begin("delegate.open")
		f, err := t.Open(name, tcio.WriteMode)
		m.end()
		if err != nil {
			return err
		}
		for p := int64(t.ClientIndex()); p < pieces; p += int64(t.NumClients()) {
			s := m.stamp()
			err := f.WriteAt(p*w.piece, w.image[p*w.piece:(p+1)*w.piece])
			m.call("delegate.writeat", s)
			if err != nil {
				return err
			}
		}
		m.begin("delegate.flush")
		err = f.Flush()
		m.end()
		if err != nil {
			return err
		}
		m.begin("delegate.close")
		err = f.Close()
		m.end()
		ws := f.Stats()
		if err != nil {
			return err
		}
		now, vt := time.Now(), c.Now()
		mu.Lock()
		if now.After(boundaryWall) {
			boundaryWall = now
		}
		if vt > boundaryVT {
			boundaryVT = vt
		}
		mu.Unlock()

		m.begin("delegate.open")
		f, err = t.Open(name, tcio.ReadMode)
		m.end()
		if err != nil {
			return err
		}
		buf := w.bufs[t.ClientIndex()]
		for pass := 0; pass < w.passes; pass++ {
			if pass == w.passes-1 {
				clear(buf) // the verified pass must not see an earlier pass's bytes
			}
			for p := int64(0); p < pieces; p++ {
				s := m.stamp()
				err := f.ReadAt(p*w.piece, buf[p*w.piece:(p+1)*w.piece])
				m.call("delegate.readat", s)
				if err != nil {
					return err
				}
			}
			m.begin("delegate.fetch")
			err := f.Fetch()
			m.end()
			if err != nil {
				return err
			}
		}
		m.begin("delegate.close")
		err = f.Close()
		m.end()
		rs := f.Stats()
		rs.CreditStalls += ws.CreditStalls
		clientStats[c.Rank()] = rs
		return err
	}

	env.FS.Reset()
	runtime.GC() // as in runPhase
	res := tr.run(mpi.Config{Procs: procs, Machine: env.Machine, FS: env.FS, EnforceMemory: true},
		func(c *mpi.Comm, m *meter) error {
			m.begin("delegate.run")
			err := delegate.Run(c, cfg, func(t *delegate.Tier) error {
				m.begin("bench.client")
				defer m.end()
				return client(t, m)
			})
			m.end()
			if err != nil {
				return err
			}
			return phaseBarrier(c, m)
		})
	it.counters.addReport(res.rep, w.scale)
	it.counters.addDelegate(clientStats, col.Servers())
	it.write.peakMem = res.rep.PeakMemory
	it.write.simBytes = env.Machine.Scale(int64(len(w.image)))
	it.read.simBytes = it.write.simBytes * int64(w.clients*w.passes)
	if res.err != nil || boundaryWall.IsZero() {
		it.write.err = res.err
		if it.write.err == nil {
			it.write.err = fmt.Errorf("no client finished the write phase")
		}
		return it
	}
	it.write.wall, it.write.vt = boundaryWall.Sub(res.start), boundaryVT.Sub(0)
	it.read.wall, it.read.vt = res.end.Sub(boundaryWall), res.rep.MaxTime.Sub(boundaryVT)
	verify(tr, &it, func() int {
		n := 0
		for i, b := range w.bufs {
			n += mismatched(b, w.image, w.o.corrupt && i == 0)
		}
		return n
	})
	return it
}

// --- journaled-checkpoint ----------------------------------------------

// journaled writes 64-byte interleaved blocks in eight flush epochs with
// the journal on and a four-segment memory budget, so every epoch appends
// to the write-ahead log and segments spill and re-fault; then it reads
// the file back one block per call, fetching once per epoch's worth.
type journaled struct {
	o       options
	procs   int
	scale   int64
	block   int
	blocks  int // per rank
	epochs  int
	data    [][]byte // [rank] the rank's blocks back to back, generated
	readBuf [][]byte
}

func newJournaled(o options) (runner, time.Duration, error) {
	w := &journaled{o: o, procs: 32, scale: 1024, block: 64, blocks: 4096, epochs: 8}
	t0 := time.Now()
	w.data = make([][]byte, w.procs)
	w.readBuf = make([][]byte, w.procs)
	for r := range w.data {
		w.data[r] = make([]byte, w.block*w.blocks)
		fill(w.data[r], streamKey(o.seed, r))
		w.readBuf[r] = make([]byte, len(w.data[r]))
	}
	return w, time.Since(t0), nil
}

func (w *journaled) iterate(tr *tracer) iteration {
	var it iteration
	env, err := bench.NewEnv(w.scale)
	if err != nil {
		it.write.err = err
		return it
	}
	const name = "journaled.dat"
	fileBytes := int64(w.block * w.blocks * w.procs)
	seg := env.FS.Config().StripeSize
	numSegs := int((fileBytes + int64(w.procs)*seg - 1) / (int64(w.procs) * seg))
	wcfg := tcio.Config{SegmentSize: seg, NumSegments: numSegs, Journal: true, SegmentMemoryBudget: 4 * seg}
	rcfg := tcio.Config{SegmentSize: seg, NumSegments: numSegs}
	mcfg := mpi.Config{Procs: w.procs, Machine: env.Machine, FS: env.FS, EnforceMemory: true}
	perEpoch := w.blocks / w.epochs
	stats := make([]tcio.Stats, w.procs)

	// epochs walks rank's blocks epoch by epoch, calling op on each and
	// end after every epoch but the last (Close ends the last one).
	epochs := func(c *mpi.Comm, m *meter, call string, buf []byte, op func(int64, []byte) error, end func() error) error {
		for i := 0; i < w.blocks; i++ {
			pos := int64((i*c.Size() + c.Rank()) * w.block)
			s := m.stamp()
			err := op(pos, buf[i*w.block:(i+1)*w.block])
			m.call(call, s)
			if err != nil {
				return err
			}
			if (i+1)%perEpoch == 0 && i+1 < w.blocks {
				if err := end(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	timed := func(m *meter, span string, f func() error) func() error {
		return func() error {
			m.begin(span)
			defer m.end()
			return f()
		}
	}
	body := func(mode tcio.Mode) func(*mpi.Comm, *meter) error {
		return func(c *mpi.Comm, m *meter) error {
			cfg, buf := wcfg, w.data[c.Rank()]
			if mode == tcio.ReadMode {
				cfg, buf = rcfg, w.readBuf[c.Rank()]
			}
			m.begin("tcio.open")
			f, err := tcio.Open(c, name, mode, cfg)
			m.end()
			if err != nil {
				return err
			}
			if mode == tcio.WriteMode {
				err = epochs(c, m, "tcio.writeat", buf, f.WriteAt, timed(m, "tcio.flush", f.Flush))
			} else {
				err = epochs(c, m, "tcio.readat", buf, f.ReadAt, timed(m, "tcio.fetch", f.Fetch))
			}
			if err != nil {
				return err
			}
			err = timed(m, "tcio.close", f.Close)()
			stats[c.Rank()] = f.Stats()
			if err != nil {
				return err
			}
			return phaseBarrier(c, m)
		}
	}

	env.FS.Reset()
	it.write.simBytes = env.Machine.Scale(fileBytes)
	it.read.simBytes = it.write.simBytes
	runPhase(tr, &it.write, &it, w.scale, mcfg, body(tcio.WriteMode))
	it.counters.addTCIO(stats)
	if it.write.err != nil {
		return it
	}
	clear(stats)
	for _, b := range w.readBuf {
		clear(b)
	}
	env.FS.Reset()
	runPhase(tr, &it.read, &it, w.scale, mcfg, body(tcio.ReadMode))
	it.counters.addTCIO(stats)
	if it.read.err != nil {
		return it
	}
	verify(tr, &it, func() int {
		n := 0
		for r := range w.data {
			n += mismatched(w.readBuf[r], w.data[r], w.o.corrupt && r == 0)
		}
		return n
	})
	return it
}

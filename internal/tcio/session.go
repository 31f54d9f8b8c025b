package tcio

// The per-file session. Until the delegation refactor, tcio.File carried a
// one-file assumption: every piece of engine state — the level-1 buffer,
// the level-2 window and its shared metadata, the write-behind and
// prefetch lanes, the lazy read queue, the stats ledger — lived directly
// on the handle struct, and nothing separated "state of this open file"
// from "state of this handle". session is that separation: one rank may
// hold many concurrently open files, each an independent session with its
// own window memory, shared metadata (SharedOnce hands every collective
// Open a fresh instance), background lanes, and counters. File is now a
// thin handle — a file pointer and a closed flag — over its session.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/wal"
)

// session is the per-file engine state of one open TCIO file on one rank.
// Two sessions on the same rank share nothing but the communicator: their
// windows, drain lanes, prefetch caches, and stats ledgers are fully
// independent, so interleaving I/O on concurrently open files cannot
// cross-contaminate counters or staged data.
type session struct {
	c    *mpi.Comm
	cfg  Config
	mode Mode
	name string

	// layout is the round-robin offset mapping of equations (1)-(3).
	layout   extent.Layout
	segSize  int64
	numSeg   int
	pieceCPU simtime.Duration // per-piece library processing cost
	retry    faults.RetryPolicy

	win  *mpi.Win
	meta *l2meta
	// agg is the node-shared deposit staging of the aggregation tier;
	// aggEnabled arms the tier (NodeAggregation on a multi-core machine —
	// a global predicate, identical on every rank, because Flush/Close
	// insert an extra collective when it holds).
	agg        *aggStaging
	aggEnabled bool
	// store is the file system access path: drain, populate, and preload
	// batches go through it for retry, tracing, virtual-time charging, and
	// the per-OST worker fan-out.
	store *storage.Client

	// Level-1 buffer. Every handle is charged one segment for it, but
	// only a write handle that stages through it holds the host bytes;
	// l1Buf is nil otherwise.
	l1Seg    int64 // aligned global segment; -1 when empty
	l1Buf    []byte
	l1Blocks []extent.Extent // segment-relative cached runs
	// openOwners lists the targets with an open shared put epoch, in
	// least-recently-used order (front = coldest, evicted first).
	openOwners []int
	// inflight is the window of outstanding Rput handles; PipelineDepth
	// bounds its length, retiring the oldest transfer when full.
	inflight []mpi.PutHandle
	// shipCount numbers this rank's one-sided shipments; it keys the
	// deterministic fault rolls of the put path.
	shipCount int64
	// Per-handle scratch for the flush/ship hot path: l1Srcs holds one
	// flush's per-run windows of l1Buf, winRunsScratch the runs translated
	// to window offsets. Safe to reuse across calls because every consumer
	// copies synchronously: PutSegmentsFrom gathers the sources into the
	// window before returning, depositForAggregation makes private copies,
	// and addDirty appends run values.
	l1Srcs         [][]byte
	winRunsScratch []extent.Extent

	// Write-behind lane (WriteBehindThreshold > 0): laneFree is when the
	// background drain lane frees up, outstanding the completion times of
	// enqueued eager batches, busy/waited the accounting behind
	// Stats.OverlapSaved.
	wbLaneFree    simtime.Time
	wbOutstanding []simtime.Time
	wbBusy        simtime.Duration
	wbWaited      simtime.Duration

	// Reused staging buffers (plain memory, outside the simulated-memory
	// accountant — see drain.go): popBuf stages demand populations, wbArena
	// stages one write-behind batch's run snapshots.
	popBuf  []byte
	wbArena []byte

	// Journal tier (Config.Journal, write mode; DESIGN.md §2f). jw appends
	// this rank's flush epochs to its per-file journal; epoch is the
	// collective flush-epoch counter, advanced identically on every rank.
	// nonResident marks local slots whose segment was spilled (dirty,
	// journaled) or dropped (clean) under memory pressure; spillRefs holds
	// the journal-file extents a slot's journaled bytes re-fault from.
	// budgetSegs is the resident-segment cap (0 = unlimited); winReserved
	// is the simulated charge taken for the window (the budget under one,
	// the full window otherwise), which release must return in kind.
	// jArena is the reused epoch-snapshot/refault staging buffer (plain
	// memory, outside the simulated accountant, like wbArena).
	jw          *wal.Writer
	epoch       int64
	nonResident map[int64]bool
	spillRefs   map[int64][]extent.Extent
	budgetSegs  int
	winReserved int64
	jArena      []byte

	// Prefetch lane (PrefetchSegments > 0): segment staging buffers read
	// ahead of demand, keyed by global segment, in LRU insertion order.
	prefetched  map[int64]*prefetchEntry
	prefetchLRU []int64
	pfLaneFree  simtime.Time

	// Lazy read queue. pendingSeg is the most recent segment touched;
	// pendingDistinct counts the distinct segments queued, which triggers
	// an implicit Fetch at the FetchBatch threshold.
	pending         []readReq
	pendingSeg      int64
	pendingDistinct int
	// postFetch hooks run after the next completed Fetch — used by typed
	// reads to unpack staged bytes into the caller's layout.
	postFetch []func()
	// Fetch scratch, reused so a steady-state fetch allocates nothing:
	// groupPending's segment index, groups, per-request group numbers and
	// grouped requests; fetchGets' owner set, lock order, and one get's
	// window runs and destination slices.
	segIdx    map[int64]int
	groups    []segGroup
	reqGroup  []int
	grouped   []readReq
	ownerSeen map[int]bool
	lockOrder []int
	getRuns   []extent.Extent
	getDsts   [][]byte

	stats Stats
}

// newSession builds the per-file engine state: window and level-1 memory
// charged to the rank's simulated share, the collective shared metadata,
// and the storage access path. cfg must already be normalized.
func newSession(c *mpi.Comm, name string, mode Mode, cfg Config) (session, error) {
	// Level-2 window memory: NumSegments segments of SegmentSize each,
	// charged in full at Open as the paper's library allocates it. Under a
	// segment budget (write mode) only the budget's worth is charged — the
	// spill tier guarantees at most that many segments stay resident —
	// while the window stays full-size, so spilled slots keep their bytes
	// for the simulation and re-faults are pure accounting. Either way the
	// host bytes come from the runtime on first touch (mpi.WinCreate): a
	// rank whose segments nobody writes or populates never holds them.
	winBytes := int64(cfg.NumSegments) * cfg.SegmentSize
	winReserved := c.Machine().Scale(winBytes)
	if cfg.SegmentMemoryBudget > 0 && mode == WriteMode {
		winReserved = c.Machine().Scale(cfg.SegmentMemoryBudget)
	}
	if err := c.Reserve(winReserved); err != nil {
		return session{}, fmt.Errorf("tcio: level-2 buffer: %w", err)
	}
	// Level-1 buffer: exactly one segment (paper §IV.A: "we set them to be
	// equal, and each level-1 buffer is aligned with one level-2 segment").
	// The simulated charge is taken for every handle, as the paper's
	// library allocates the buffer at open; the host bytes only where
	// writes stage through it — read handles and the DisableLevel1
	// ablation never touch it.
	if err := c.Reserve(c.Machine().Scale(cfg.SegmentSize)); err != nil {
		c.Release(winReserved)
		return session{}, fmt.Errorf("tcio: level-1 buffer: %w", err)
	}
	var l1 []byte
	if mode == WriteMode && !cfg.DisableLevel1 {
		l1 = make([]byte, cfg.SegmentSize)
	}
	win, err := c.WinCreate(winBytes)
	if err != nil {
		return session{}, err
	}
	type sharedState struct {
		meta *l2meta
		agg  *aggStaging
	}
	// SharedOnce is a fresh collective per call, so every Open — including
	// a second or third concurrent one on the same communicator — gets its
	// own l2meta and aggregation staging.
	shared, err := c.SharedOnce(func() interface{} {
		return &sharedState{
			meta: newL2Meta(cfg.Journal && mode == WriteMode),
			agg:  newAggStaging(),
		}
	})
	if err != nil {
		return session{}, err
	}
	ss := shared.(*sharedState)
	retry := cfg.retryPolicy()
	store := storage.NewClient(c.FS().Open(name), c.Node(), c.Rank(), c)
	store.SetRetryPolicy(retry)
	store.SetTrace(cfg.Trace)
	store.SetWorkers(cfg.DrainWorkers)
	s := session{
		c:       c,
		cfg:     cfg,
		mode:    mode,
		name:    name,
		layout:  extent.Layout{P: c.Size(), SegSize: cfg.SegmentSize, NumSeg: cfg.NumSegments},
		segSize: cfg.SegmentSize,
		numSeg:  cfg.NumSegments,
		win:     win,
		meta:    ss.meta,
		agg:     ss.agg,
		store:   store,
		retry:   retry,
		l1Seg:   -1,
		l1Buf:   l1,
		// Each POSIX-like call costs library CPU (offset mapping, block
		// bookkeeping, copies). Scaled runs stand for ByteScale times as
		// many pieces, so the charge scales accordingly. Reads are cheaper:
		// lazy recording touches no data until Fetch.
		pieceCPU: simtime.Duration(150) * simtime.Duration(c.Machine().ByteScale),
	}
	s.winReserved = winReserved
	if mode == ReadMode {
		s.pieceCPU = simtime.Duration(60) * simtime.Duration(c.Machine().ByteScale)
	}
	if cfg.Journal && mode == WriteMode {
		// The journal file lands on the OST after the data file's first —
		// offset by rank so P journals spread across the targets instead of
		// queuing behind the data stripes. Every armed rank creates its
		// journal at Open, so Recover can probe rank 0.. by existence.
		wfile := c.FS().OpenPlaced(WALFileName(name, c.Rank()),
			(store.File().FirstOST()+1+c.Rank())%c.FS().Config().OSTCount)
		wstore := storage.NewClient(wfile, c.Node(), c.Rank(), c)
		wstore.SetRetryPolicy(retry)
		wstore.SetTrace(cfg.Trace)
		s.jw = wal.NewWriter(wstore, c.Rank())
		s.nonResident = make(map[int64]bool)
		s.spillRefs = make(map[int64][]extent.Extent)
		if cfg.SegmentMemoryBudget > 0 {
			s.budgetSegs = int(cfg.SegmentMemoryBudget / cfg.SegmentSize)
			if s.budgetSegs < 1 {
				s.budgetSegs = 1
			}
		}
	}
	if cfg.EmulateTwoSided {
		win.SetClass(netsim.TwoSided)
	}
	// The aggregation tier arms only when a node can host more than one
	// rank — a property of the machine, not of any particular rank, so all
	// ranks agree on the collective structure of Flush and Close. With one
	// core per node (or a single rank) the predicate is false and the ship
	// path is today's, bit for bit.
	s.aggEnabled = cfg.NodeAggregation && c.Machine().CoresPerNode > 1 && c.Size() > 1
	if cfg.PrefetchSegments > 0 {
		// Plain staging memory, like populate's: the cache is transient
		// library scratch, deliberately outside the simulated-memory
		// accountant so arming prefetch cannot shift the per-rank
		// allocation fault stream (see DESIGN.md §2b).
		s.prefetched = make(map[int64]*prefetchEntry)
	}
	s.pendingSeg = -1
	return s, nil
}

// release returns the session's accounted memory (Close calls it): the
// window's charge as taken at Open — the budget under SegmentMemoryBudget,
// the full window otherwise — and the level-1 segment.
func (s *session) release() {
	s.c.Release(s.winReserved)
	s.c.Release(s.c.Machine().Scale(s.segSize))
}

// Name reports the file name the session is bound to.
func (s *session) Name() string { return s.name }

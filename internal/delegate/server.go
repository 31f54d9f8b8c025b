package delegate

// The server side of the tier. A server rank never runs application code:
// it sits in an mpi.Serve loop staging client writes into per-handle,
// per-domain-block buffers, and drains one coalesced batch per flush
// epoch. Arrival order at the loop races with goroutine scheduling, so
// nothing order-dependent happens at receive time — records are staged
// with their (client, seq) identity and every epoch is applied in sorted
// order, making the drained batch and the file image deterministic.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// ServerStats is one server rank's final counters.
type ServerStats struct {
	// Rank is the server's rank in the communicator.
	Rank int
	// Requests counts protocol requests served (shutdowns excluded).
	Requests int64
	// StagedWrites and StagedBytes count write records admitted.
	StagedWrites int64
	StagedBytes  int64
	// Epochs counts flush epochs closed.
	Epochs int64
	// BatchedRuns counts the coalesced extent runs drained — each is one
	// file system write request, so comparing it against StagedWrites
	// measures the tier's aggregation factor.
	BatchedRuns int64
	// FSWrites/FSReads/FSBytes are the storage-layer request and byte
	// counts the drains and reads produced; Retries the transient faults
	// absorbed under chaos.
	FSWrites int64
	FSReads  int64
	FSBytes  int64
	Retries  int64
	// ReadReqs counts OpRead requests served (inline or via the DRR
	// scheduler); ReadEpochs collective read epochs closed, and
	// CollectiveBlocks the merged domain blocks those epochs staged.
	ReadReqs         int64
	ReadEpochs       int64
	CollectiveBlocks int64
	// CacheHits/CacheMisses/CacheEvictions count hot-block cache
	// outcomes: every served read request and every collective block is
	// exactly one hit or miss while the cache is armed, and all three
	// stay zero while it is disarmed.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
}

// Collector gathers ServerStats across server ranks (they finish as
// separate goroutines, so the sink is mutex-guarded).
type Collector struct {
	mu      sync.Mutex
	servers []ServerStats
}

func (col *Collector) add(s ServerStats) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.servers = append(col.servers, s)
}

// Servers returns the collected stats sorted by rank.
func (col *Collector) Servers() []ServerStats {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := append([]ServerStats(nil), col.servers...)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// writeRec is one staged client write.
type writeRec struct {
	client int
	seq    int64
	off    int64
	data   []byte
}

// handleFile is a server's state for one open handle.
type handleFile struct {
	name  string
	mode  tcio.Mode
	refs  int // clients currently holding the handle open
	pf    *pfs.File
	drain *storage.Client
	// readers holds one storage client per reading client rank,
	// impersonating that rank so the parallel file system's readahead
	// window and the fault injector's identity keys see the same
	// per-client streams they would without delegation.
	readers map[int]*storage.Client
	staged  []writeRec
	flushed map[int]bool
	epoch   int64
	// intents and intentSeqs hold the current collective read epoch's
	// per-client intent vectors and request sequence numbers; the epoch
	// closes when every client has contributed (the flush quorum rule).
	intents    map[int][]extent.Extent
	intentSeqs map[int]int64
}

type server struct {
	c       *mpi.Comm
	cfg     Config
	tcfg    tcio.Config
	retry   faults.RetryPolicy
	clients int // client-rank count: the flush-epoch quorum
	handles map[int32]*handleFile
	stats   ServerStats
	// cache is the hot-block cache (nil when ServerCacheBlocks == 0) and
	// dirty counts staged-but-undrained writes per (file, block): a block
	// with dirty records bypasses the cache entirely, so a read between a
	// write and its flush epoch never sees bytes the drain hasn't applied.
	cache *blockCache
	dirty map[blockKey]int
	// sched queues reads for deficit-round-robin draining (nil when
	// ReadQuantum == 0, which serves reads inline in arrival order).
	sched *drrSched
}

// serve runs the delegation request loop on a server rank until every
// client has shut down, then deposits the rank's counters in Collect.
func serve(c *mpi.Comm, cfg Config, tcfg tcio.Config, serverRanks []int) error {
	srv := &server{
		c:       c,
		cfg:     cfg,
		tcfg:    tcfg,
		retry:   faults.DefaultRetryPolicy(),
		handles: make(map[int32]*handleFile),
	}
	if tcfg.Retry != nil {
		srv.retry = *tcfg.Retry
	}
	srv.clients = c.Size() - len(serverRanks)
	if cfg.ServerCacheBlocks > 0 {
		srv.cache = newBlockCache(cfg.ServerCacheBlocks)
		srv.dirty = make(map[blockKey]int)
	}
	var err error
	if cfg.ReadQuantum > 0 {
		srv.sched = newDRR(cfg.ReadQuantum)
		err = srv.loop()
	} else {
		err = c.Serve(tagRequest, srv.clients, serverPerReq, srv.handle)
	}
	if cfg.Collect != nil {
		srv.stats.Rank = c.Rank()
		cfg.Collect.add(srv.stats)
	}
	return err
}

func (s *server) handle(req *mpi.RPCRequest) error {
	s.stats.Requests++
	switch req.Op {
	case mpi.OpOpen:
		return s.open(req)
	case mpi.OpWrite:
		return s.write(req)
	case mpi.OpRead:
		return s.read(req)
	case mpi.OpFlush:
		return s.flush(req)
	case mpi.OpReadIntent:
		return s.readIntent(req)
	case mpi.OpClose:
		return s.close(req)
	}
	return fmt.Errorf("delegate: unexpected %s", req.Op)
}

// loop is the scheduling variant of mpi.Serve, used when ReadQuantum > 0:
// reads are queued into the DRR scheduler instead of served inline, and
// drained one round at a time whenever no new request is waiting — that
// is, between writes. A blocking receive happens only with an empty read
// queue, so queued reads cannot be stranded behind it; and a client
// always collects its read replies before it can send OpShutdown, so loop
// exit implies an empty scheduler.
func (s *server) loop() error {
	for remaining := s.clients; remaining > 0; {
		req, ok, err := s.c.TryRecvRequest(mpi.AnySource, tagRequest)
		if err != nil {
			return err
		}
		if !ok {
			if s.sched.pending() > 0 {
				for _, rq := range s.sched.round() {
					if err := s.read(rq); err != nil {
						return fmt.Errorf("delegate: serve tag %d: %s from rank %d: %w",
							tagRequest, rq.Op, rq.Client, err)
					}
				}
				continue
			}
			if req, err = s.c.RecvRequest(mpi.AnySource, tagRequest); err != nil {
				return err
			}
		}
		s.c.AdvanceTo(s.c.Now().Add(serverPerReq))
		if req.Op == mpi.OpShutdown {
			remaining--
			continue
		}
		if req.Op == mpi.OpRead {
			s.stats.Requests++
			s.sched.push(req.Client, req)
			continue
		}
		if err := s.handle(req); err != nil {
			return fmt.Errorf("delegate: serve tag %d: %s from rank %d: %w",
				tagRequest, req.Op, req.Client, err)
		}
	}
	return nil
}

func (s *server) open(req *mpi.RPCRequest) error {
	name, mode := string(req.Data), tcio.Mode(req.Off)
	h := s.handles[req.Handle]
	if h == nil {
		pf := s.c.FS().Open(name)
		drain := storage.NewClient(pf, s.c.Node(), s.c.Rank(), s.c)
		drain.SetRetryPolicy(s.retry)
		drain.SetTrace(s.tcfg.Trace)
		h = &handleFile{
			name:       name,
			mode:       mode,
			pf:         pf,
			drain:      drain,
			readers:    make(map[int]*storage.Client),
			flushed:    make(map[int]bool),
			intents:    make(map[int][]extent.Extent),
			intentSeqs: make(map[int]int64),
		}
		s.handles[req.Handle] = h
	}
	if h.name != name || h.mode != mode {
		return fmt.Errorf("delegate: handle %d reopened as %q/%v, was %q/%v",
			req.Handle, name, mode, h.name, h.mode)
	}
	h.refs++
	return nil
}

func (s *server) lookup(req *mpi.RPCRequest) (*handleFile, error) {
	h := s.handles[req.Handle]
	if h == nil {
		return nil, fmt.Errorf("delegate: %s on unknown handle %d from rank %d",
			req.Op, req.Handle, req.Client)
	}
	return h, nil
}

func (s *server) write(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	h.staged = append(h.staged, writeRec{
		client: req.Client, seq: req.Seq, off: req.Off, data: req.Data,
	})
	s.stats.StagedWrites++
	s.stats.StagedBytes += int64(len(req.Data))
	if s.cache != nil {
		// The block now has a staged-but-undrained write: reads must
		// bypass the cache for it until the flush epoch drains (and
		// writes through) — see closeEpoch.
		s.dirty[blockKey{name: h.name, blk: req.Off / s.cfg.DomainSize}]++
	}
	// Grant the admission credit back now that the record is staged.
	return s.c.Send(req.Client, tagCredit, []byte{1})
}

// reader returns (creating on first use) the storage client that
// impersonates the requesting rank for h, so the parallel file system's
// readahead window and the fault injector's identity keys see the same
// per-client streams they would without delegation.
func (s *server) reader(h *handleFile, client int) *storage.Client {
	rd := h.readers[client]
	if rd == nil {
		rd = storage.NewClient(h.pf, s.c.Node(), client, s.c)
		rd.SetRetryPolicy(s.retry)
		rd.SetTrace(s.tcfg.Trace)
		h.readers[client] = rd
	}
	return rd
}

// errCode classifies a storage-layer error for the reply's wire code, so
// the client can surface a typed error instead of a flattened string.
func errCode(err error) mpi.RPCErrCode {
	if errors.Is(err, faults.ErrExhaustedRetries) {
		return mpi.RPCErrExhausted
	}
	return mpi.RPCErrGeneric
}

// traceCacheServe records one cache hit in the trace stream.
func (s *server) traceCacheServe(bytes, blk int64) {
	if s.tcfg.Trace == nil {
		return
	}
	s.tcfg.Trace.Record(trace.Event{
		Rank: s.c.Rank(), Start: s.c.Now(), Kind: trace.KindCacheServe,
		Bytes: bytes, Detail: fmt.Sprintf("blk=%d", blk),
	})
}

// read serves one OpRead. Requests are split at domain-block boundaries
// by the client, so each lies within a single block. With the cache
// armed, a clean cached block serves from memory; a clean uncached block
// fills whole through the requesting client's reader and is cached; a
// dirty block (staged-but-undrained writes) bypasses the cache with a
// per-request read, exactly the disarmed tier's shape.
func (s *server) read(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	s.stats.ReadReqs++
	ds := s.cfg.DomainSize
	key := blockKey{name: h.name, blk: req.Off / ds}
	if s.cache != nil && s.dirty[key] == 0 {
		if cbuf, ok := s.cache.get(key); ok {
			s.stats.CacheHits++
			s.traceCacheServe(req.Len, key.blk)
			rel := req.Off - key.blk*ds
			// SendReply copies synchronously into its wire staging, so
			// serving a slice of the live entry is safe and zero-copy.
			return s.c.SendReply(req.Client, tagReply, &mpi.RPCReply{
				OK: true, Seq: req.Seq, Data: cbuf[rel : rel+req.Len],
			})
		}
		s.stats.CacheMisses++
		buf := mpi.GetBuf(int(ds))
		var res storage.Result
		if mutate.Enabled(mutate.DelegateCacheStaleServe) {
			// Planted bug: "fill" the block without reading the file
			// system, so this reply and every later hit serve zeros.
			for i := range buf {
				buf[i] = 0
			}
		} else {
			res, err = s.reader(h, req.Client).ReadExtents("delegate-fill", trace.KindFetch, []storage.Request{
				{Off: key.blk * ds, Data: buf, Tag: fmt.Sprintf("c%d", req.Client)},
			})
		}
		s.stats.FSReads += res.Requests
		s.stats.FSBytes += res.Bytes
		s.stats.Retries += res.Retries
		if err != nil {
			mpi.RecycleBuf(buf)
			return s.c.SendReply(req.Client, tagReply, &mpi.RPCReply{
				Code: errCode(err), Err: err.Error(), Seq: req.Seq,
			})
		}
		rel := req.Off - key.blk*ds
		sendErr := s.c.SendReply(req.Client, tagReply, &mpi.RPCReply{
			OK: true, Seq: req.Seq, Data: buf[rel : rel+req.Len],
		})
		if displaced, evicted := s.cache.put(key, buf); displaced != nil {
			mpi.RecycleBuf(displaced)
			if evicted {
				s.stats.CacheEvictions++
			}
		}
		return sendErr
	}
	if s.cache != nil {
		// Dirty block: served, but never from or into the cache.
		s.stats.CacheMisses++
	}
	buf := mpi.GetBuf(int(req.Len))
	res, err := s.reader(h, req.Client).ReadExtents("delegate-read", trace.KindFetch, []storage.Request{
		{Off: req.Off, Data: buf, Tag: fmt.Sprintf("c%d", req.Client)},
	})
	s.stats.FSReads += res.Requests
	s.stats.FSBytes += res.Bytes
	s.stats.Retries += res.Retries
	rep := &mpi.RPCReply{OK: err == nil, Seq: req.Seq, Data: buf}
	if err != nil {
		rep.Code, rep.Err, rep.Data = errCode(err), err.Error(), nil
	}
	sendErr := s.c.SendReply(req.Client, tagReply, rep)
	mpi.RecycleBuf(buf)
	return sendErr
}

func (s *server) flush(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	if h.flushed[req.Client] {
		return fmt.Errorf("delegate: double flush of handle %d from rank %d",
			req.Handle, req.Client)
	}
	h.flushed[req.Client] = true
	// The quorum is the static client count, not the opens seen so far: a
	// fast client's open, writes, and marker can all arrive before a slow
	// client has even opened the file, and closing on a partial quorum
	// would drain an epoch missing the slow clients' writes. Open is
	// collective over the clients, so every client contributes exactly one
	// marker per epoch, and FIFO per client orders marker after writes.
	if len(h.flushed) < s.clients {
		return nil
	}
	return s.closeEpoch(h)
}

// blockStage is one domain block's staging buffer during an epoch close.
type blockStage struct {
	buf  []byte
	runs []extent.Extent // block-relative dirty runs, coalesced
}

// closeEpoch applies the epoch's staged writes in (client, seq) order —
// last write wins, deterministically — coalesces them per domain block,
// drains one batch, and acks the flushed clients in rank order. Drained
// runs write through into live cache entries (and clear the blocks'
// dirty counters), so post-flush reads hit coherent bytes.
func (s *server) closeEpoch(h *handleFile) error {
	if s.cache != nil {
		// Every staged record retires with this epoch; a block goes clean
		// again once its last staged write drains.
		for _, rec := range h.staged {
			key := blockKey{name: h.name, blk: rec.off / s.cfg.DomainSize}
			if n := s.dirty[key]; n <= 1 {
				delete(s.dirty, key)
			} else {
				s.dirty[key] = n - 1
			}
		}
	}
	sort.Slice(h.staged, func(i, j int) bool {
		a, b := h.staged[i], h.staged[j]
		if a.client != b.client {
			return a.client < b.client
		}
		return a.seq < b.seq
	})
	if mutate.Enabled(mutate.DelegateDropQueuedFlush) && len(h.staged) > 0 {
		h.staged = h.staged[:len(h.staged)-1]
	}
	ds := s.cfg.DomainSize
	blocks := make(map[int64]*blockStage)
	var order []int64
	for _, rec := range h.staged {
		blk := rec.off / ds
		st := blocks[blk]
		if st == nil {
			// Pooled staging memory, outside the simulated-memory
			// accountant: server staging must not perturb the per-rank
			// allocation fault stream (the same rule tcio's populate and
			// prefetch scratch follows). The pool hands back stale bytes,
			// which is safe here: the coalesced runs cover exactly the
			// staged writes' bytes, and only run-covered slices are ever
			// drained or written through.
			st = &blockStage{buf: mpi.GetBuf(int(ds))}
			blocks[blk] = st
			order = append(order, blk)
		}
		rel := rec.off - blk*ds
		copy(st.buf[rel:], rec.data)
		st.runs = extent.Add(st.runs, []extent.Extent{{Off: rel, Len: int64(len(rec.data))}})
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var reqs []storage.Request
	for _, blk := range order {
		st := blocks[blk]
		for _, run := range st.runs {
			reqs = append(reqs, storage.Request{
				Off:  blk*ds + run.Off,
				Data: st.buf[run.Off:run.End()],
				Tag:  fmt.Sprintf("blk=%d", blk),
			})
		}
	}
	var drainErr error
	if len(reqs) > 0 {
		res, err := h.drain.WriteExtents("delegate-drain", trace.KindDrain, reqs)
		drainErr = err
		s.stats.BatchedRuns += int64(len(reqs))
		s.stats.FSWrites += res.Requests
		s.stats.FSBytes += res.Bytes
		s.stats.Retries += res.Retries
	}
	// Write the drained runs through into live cache entries so they stay
	// coherent (a failed drain invalidates instead — the entry's bytes can
	// no longer be trusted to match the file), then retire the pooled
	// staging buffers.
	for _, blk := range order {
		st := blocks[blk]
		if s.cache != nil {
			key := blockKey{name: h.name, blk: blk}
			if drainErr == nil {
				if cbuf, ok := s.cache.peek(key); ok {
					for _, run := range st.runs {
						copy(cbuf[run.Off:run.End()], st.buf[run.Off:run.End()])
					}
				}
			} else if cbuf, ok := s.cache.invalidate(key); ok {
				mpi.RecycleBuf(cbuf)
			}
		}
		mpi.RecycleBuf(st.buf)
	}
	s.stats.Epochs++
	h.epoch++
	acked := make([]int, 0, len(h.flushed))
	for cl := range h.flushed {
		acked = append(acked, cl)
	}
	sort.Ints(acked)
	for _, cl := range acked {
		rep := &mpi.RPCReply{OK: drainErr == nil, Seq: h.epoch}
		if drainErr != nil {
			rep.Code, rep.Err = errCode(drainErr), drainErr.Error()
		}
		if err := s.c.SendReply(cl, tagReply, rep); err != nil {
			return err
		}
	}
	h.staged = nil
	h.flushed = make(map[int]bool)
	return nil
}

func (s *server) close(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	h.refs--
	if h.refs > 0 {
		return nil
	}
	if len(h.staged) > 0 {
		return fmt.Errorf("delegate: handle %d closed with %d staged writes",
			req.Handle, len(h.staged))
	}
	delete(s.handles, req.Handle)
	return nil
}

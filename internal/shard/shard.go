// Package shard hash-partitions a uint64 key space across N independent
// per-shard stores so that mutations on different shards commit in
// parallel. Every store backend (internal/store) shares the paper's
// ownership discipline — pangolin transactions are per-goroutine and two
// concurrent transactions must not modify the same object (§3.4) — so
// the package gives each shard exactly one owner goroutine (a worker)
// that performs every mutating store access — batches, snapshot saves,
// scrubs — and routes requests to workers over channels. Write
// concurrency scales with the shard count while each store keeps the
// single-writer discipline.
//
// Reads do not funnel through the workers when the backend offers a
// read view (store.ReadViewer): Pangolin's design point is that readers
// verify per-object checksums straight from NVMM and run concurrently
// with each other (§3.3), so Get executes a verified read on the
// caller's goroutine against the store's view, gated by a per-shard
// reader/writer gate. Readers share the gate; the worker takes its
// write side around every store access, so a group commit (the
// linearization point for the shard) excludes readers only for the
// commit itself. Readers never block on the gate: if it is unavailable
// — commit, save, crash-image, scrub, or recovery in progress — the
// read falls back to the worker queue, which serializes with everything
// else. A read whose verification failed falls back with request.heal
// set: the worker re-runs it verified under its exclusive gate, outside
// any group commit, with one repair pass on corruption (withHeal), so
// the bytes the view rejected are never served by an owner read that
// does not verify.
//
// Backends are selected per shard (Options.Backend): the pangolin
// backend persists as one snapshot file per shard (shard-%04d.pgl, via
// pangolin.PoolSet) and the log backend as one segment directory per
// shard (shard-%04d.log), side by side in the set directory — Open
// rediscovers each shard's backend from which form is present. Each
// shard records its structure, index, and set size (the pangolin root /
// the log manifest) so Open can reattach and can reject a directory
// whose shards disagree (e.g. a file restored from the wrong set).
package shard

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/logstore"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// ErrShuttingDown reports an operation rejected because the set (or its
// shard) is shutting down. It is distinguishable with errors.Is from a
// real lookup or transaction error, so callers can treat it as a
// lifecycle event rather than data-path corruption.
var ErrShuttingDown = errors.New("shard set shutting down")

// ErrUnprotectedMode reports an explicit request for the unprotected
// pmemobj baseline through a service set. The baseline is numerically
// the zero Mode, so the numeric Config field cannot distinguish "asked
// for pmemobj" from "left at the default"; Options.Mode can, and an
// explicit "pmemobj" is rejected with this error instead of being
// silently upgraded to full protection (the pre-fix behavior, which
// served a different mode than the operator asked for).
var ErrUnprotectedMode = errors.New("shard: the unprotected pmemobj mode is not servable (a serving layer that silently dropped every protection would be a footgun)")

// Options configures a shard set.
type Options struct {
	// Structure selects the kv structure by registry name; default
	// "hashmap".
	Structure string
	// Backend selects each shard's storage backend: "pangolin" (the
	// paper's engine; default), "logstore" (the append-only log
	// baseline), or a comma list cycled across the shards ("pangolin,
	// logstore" alternates) so one set can mix backends for A/B runs.
	// Open ignores it — each shard's backend is rediscovered from its
	// on-disk form.
	Backend string
	// Mode selects each shard pool's operation mode BY NAME ("pangolin",
	// "pangolin-ml", "pangolin-mlp", "pangolin-mlpc"), overriding
	// Pangolin.Mode. Empty defers to Pangolin.Mode. This is the explicit
	// channel: requesting "pmemobj" fails with ErrUnprotectedMode, and an
	// unknown name is an error, where the numeric field below cannot tell
	// an explicit pmemobj request from the zero-value default. Pangolin
	// shards only; the log backend has no modes.
	Mode string
	// Pangolin configures each pangolin shard pool. A zero (pmemobj)
	// Mode always selects ModePangolinMLPC, the fully protected system:
	// the unprotected baseline is numerically zero, so this field cannot
	// carry an explicit pmemobj request — use Mode, which rejects it
	// with a typed error instead of silently upgrading. Pangolin.Scrub
	// also bounds every backend's maintenance steps.
	Pangolin pangolin.Config
	// LogSegmentBytes is the log backend's segment rotation threshold;
	// 0 selects the logstore default. Small values force rotation and
	// compaction traffic (tests, the loadtest's backend phase).
	LogSegmentBytes int64
	// QueueLen is the per-shard request queue depth; default 128.
	QueueLen int
	// MaxBatch caps how many operations a shard worker folds into one
	// group-committed store batch; default 64. A worker only waits to
	// fill a group within the bounded adaptive window below, so this
	// bounds batch size, not latency.
	MaxBatch int
	// CommitWait caps the adaptive group-commit window: when a shard's
	// queue has been running deep (recent group depth EWMA ≥ 2), the
	// worker may wait up to this long — scaled down by how shallow the
	// recent groups actually were — for more ops before committing, so
	// per-commit transaction costs amortize over deeper batches exactly
	// when traffic can fill them. Idle or lockstep load never waits: the
	// EWMA sits at 1 and the window is zero. 0 selects the default
	// (100µs); negative disables the wait entirely (the pre-adaptive
	// drain-only behavior).
	CommitWait time.Duration
	// SerialReads disables the concurrent verified-read fast path and
	// routes every Get through the shard's worker goroutine (the
	// pre-fast-path behavior). Mainly for A/B measurement (pglserve
	// -serial-reads) and tests; leave false in production.
	SerialReads bool
	// ScrubInterval enables the background maintenance scheduler: every
	// interval one shard (round-robin) is offered one bounded scrub
	// step, skipped with a backoff whenever that shard's worker is busy.
	// 0 disables the scheduler; scrubbing then happens only on demand
	// (Scrub / the server's SCRUB op). Step bounds come from
	// Pangolin.Scrub. On log shards the step doubles as the compaction
	// driver: merges run through the same tick.
	ScrubInterval time.Duration
}

func (o *Options) structure() string {
	if o.Structure == "" {
		return "hashmap"
	}
	return o.Structure
}

// modeNames maps the servable mode names. "pmemobj" is deliberately
// absent: an explicit request for it is rejected, not coerced.
var modeNames = map[string]pangolin.Mode{
	"pangolin":      pangolin.ModePangolin,
	"pangolin-ml":   pangolin.ModePangolinML,
	"pangolin-mlp":  pangolin.ModePangolinMLP,
	"pangolin-mlpc": pangolin.ModePangolinMLPC,
}

// ModeNames returns the servable mode names in protection order.
func ModeNames() []string {
	return []string{"pangolin", "pangolin-ml", "pangolin-mlp", "pangolin-mlpc"}
}

func (o *Options) config() (pangolin.Config, error) {
	cfg := o.Pangolin
	switch o.Mode {
	case "":
		// Numeric path: zero (== ModePmemobj) is indistinguishable from
		// "unset" and means the fully protected default.
		if cfg.Mode == pangolin.ModePmemobj {
			cfg.Mode = pangolin.ModePangolinMLPC
		}
	case "pmemobj":
		return cfg, ErrUnprotectedMode
	default:
		m, ok := modeNames[o.Mode]
		if !ok {
			return cfg, fmt.Errorf("shard: unknown mode %q (have %v)", o.Mode, ModeNames())
		}
		cfg.Mode = m
	}
	return cfg, nil
}

func (o *Options) queueLen() int {
	if o.QueueLen <= 0 {
		return 128
	}
	return o.QueueLen
}

func (o *Options) maxBatch() int {
	if o.MaxBatch <= 0 {
		return 64
	}
	return o.MaxBatch
}

// defaultCommitWait is the adaptive group-commit window cap when
// Options.CommitWait is zero: a few store round trips' worth of grace,
// far below any client-visible latency budget.
const defaultCommitWait = 100 * time.Microsecond

func (o *Options) commitWait() time.Duration {
	switch {
	case o.CommitWait == 0:
		return defaultCommitWait
	case o.CommitWait < 0:
		return 0
	default:
		return o.CommitWait
	}
}

// logOptions builds the log backend's per-shard options.
func (o *Options) logOptions(structure string, i, n int) logstore.Options {
	return logstore.Options{
		Structure:    structure,
		Index:        i,
		Count:        n,
		SegmentBytes: o.LogSegmentBytes,
		Scrub:        o.Pangolin.Scrub,
	}
}

// Set is a sharded, concurrently usable key-value store over per-shard
// store.Store backends. All methods are safe for concurrent use; each
// operation is serialized onto its shard's worker goroutine.
type Set struct {
	dir       string
	workers   []*worker
	stores    []store.Store
	structure registry.Structure
	maint     *maintenance // background scrub scheduler; nil when disabled
}

// Create builds a new n-shard set in dir and starts its workers. The
// per-shard backends come from opts.Backend; pangolin shards of the set
// share one pangolin.PoolSet (sparse when backends are mixed).
func Create(dir string, n int, opts Options) (*Set, error) {
	structure, err := registry.ByName(opts.structure())
	if err != nil {
		return nil, err
	}
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	backends, err := store.ParseBackendSpec(opts.Backend, n)
	if err != nil {
		return nil, err
	}
	var pgIdx []int
	for i, b := range backends {
		if b == store.BackendPangolin {
			pgIdx = append(pgIdx, i)
		}
	}
	// NewPoolSetShards defers the snapshot writes: the Sync below
	// persists the pools once, with their roots already initialized.
	var pools *pangolin.PoolSet
	if len(pgIdx) > 0 {
		pools, err = pangolin.NewPoolSetShards(dir, n, pgIdx, cfg)
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	stores := make([]store.Store, n)
	fail := func(upto int, err error) (*Set, error) {
		for k := 0; k < upto; k++ {
			stores[k].Close()
		}
		if pools != nil {
			// Pangolin pools not yet wrapped in a store still need closing.
			for _, pi := range pgIdx {
				if pi >= upto {
					pools.Pool(pi).Close()
				}
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		var st store.Store
		switch backends[i] {
		case store.BackendPangolin:
			st, err = pangolinstore.Create(pools, i, structure, cfg.Scrub)
		case store.BackendLog:
			st, err = logstore.Create(logstore.ShardDir(dir, i), opts.logOptions(structure.Name, i, n))
		}
		if err != nil {
			return fail(i, fmt.Errorf("shard %d (%s): %w", i, backends[i], err))
		}
		stores[i] = st
	}
	s := &Set{dir: dir, stores: stores, structure: structure}
	for i, st := range stores {
		view, err := readView(st, opts)
		if err != nil {
			s.Abandon()
			return nil, fmt.Errorf("shard %d: attach read view: %w", i, err)
		}
		s.workers = append(s.workers, newWorker(i, st, view, opts.queueLen(), opts.maxBatch(), opts.commitWait()))
	}
	// Persist the freshly initialized shards (pangolin roots and
	// anchors; log manifests and empty tails).
	if err := s.Sync(); err != nil {
		s.Abandon()
		return nil, err
	}
	s.startMaint(opts.ScrubInterval)
	return s, nil
}

// Open reopens the set in dir — rediscovering each shard's backend from
// its on-disk form, running crash recovery on every shard — reattaches
// each shard's structure, and starts the workers. opts.Structure and
// opts.Backend are ignored; both are read from the shards themselves.
func Open(dir string, opts Options) (*Set, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	backends, err := DiscoverBackends(dir)
	if err != nil {
		return nil, err
	}
	n := len(backends)
	var pgIdx []int
	for i, b := range backends {
		if b == store.BackendPangolin {
			pgIdx = append(pgIdx, i)
		}
	}
	var pools *pangolin.PoolSet
	if len(pgIdx) > 0 {
		pools, err = pangolin.OpenPoolSetShards(dir, n, pgIdx, cfg)
		if err != nil {
			return nil, err
		}
	}
	stores := make([]store.Store, n)
	fail := func(upto int, err error) (*Set, error) {
		for k := 0; k < upto; k++ {
			stores[k].Close()
		}
		if pools != nil {
			for _, pi := range pgIdx {
				if pi >= upto {
					pools.Pool(pi).Close()
				}
			}
		}
		return nil, err
	}
	var structure registry.Structure
	for i := 0; i < n; i++ {
		var name string
		switch backends[i] {
		case store.BackendPangolin:
			st, err := pangolinstore.Open(pools, i, cfg.Scrub)
			if err != nil {
				return fail(i, fmt.Errorf("shard %d: %w", i, err))
			}
			stores[i] = st
			name = st.Structure().Name
		case store.BackendLog:
			st, err := logstore.Open(logstore.ShardDir(dir, i), opts.logOptions("", i, n))
			if err != nil {
				return fail(i, fmt.Errorf("shard %d: %w", i, err))
			}
			stores[i] = st
			name = st.Structure()
		}
		if i == 0 {
			if structure, err = registry.ByName(name); err != nil {
				return fail(i+1, fmt.Errorf("shard %d: %w", i, err))
			}
		} else if name != structure.Name {
			return fail(i+1, fmt.Errorf("shard %d holds %s but shard 0 holds %s", i, name, structure.Name))
		}
	}
	s := &Set{dir: dir, stores: stores, structure: structure}
	for i, st := range stores {
		view, err := readView(st, opts)
		if err != nil {
			s.Abandon()
			return nil, fmt.Errorf("shard %d: attach read view: %w", i, err)
		}
		s.workers = append(s.workers, newWorker(i, st, view, opts.queueLen(), opts.maxBatch(), opts.commitWait()))
	}
	s.startMaint(opts.ScrubInterval)
	return s, nil
}

// DiscoverBackends reads a set directory's per-shard backend layout:
// shard i is pangolin when shard-%04d.pgl (a file) is present and
// logstore when shard-%04d.log (a directory) is. Every index in
// [0, max] must appear in exactly one form.
func DiscoverBackends(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	backendAt := make(map[int]string)
	max := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-") || len(name) < len("shard-")+4 {
			continue
		}
		var backend string
		switch {
		case strings.HasSuffix(name, ".pgl") && !e.IsDir():
			backend = store.BackendPangolin
		case strings.HasSuffix(name, ".log") && e.IsDir():
			backend = store.BackendLog
		default:
			continue
		}
		i, err := strconv.Atoi(name[len("shard-") : len(name)-len(".pgl")])
		if err != nil {
			continue
		}
		if prev, dup := backendAt[i]; dup {
			return nil, fmt.Errorf("shard: %s holds both %s and %s files for shard %d", dir, prev, backend, i)
		}
		backendAt[i] = backend
		if i > max {
			max = i
		}
	}
	if max < 0 {
		return nil, fmt.Errorf("shard: no shard files in %s", dir)
	}
	out := make([]string, max+1)
	for i := range out {
		b, ok := backendAt[i]
		if !ok {
			return nil, fmt.Errorf("shard: shard files not contiguous: %s has no shard %d", dir, i)
		}
		out[i] = b
	}
	return out, nil
}

// readView attaches the concurrent-read handle the fast path runs its
// verified reads against. Returns nil — fast path off — under
// SerialReads or when the backend lacks the capability.
func readView(st store.Store, opts Options) (store.View, error) {
	if opts.SerialReads {
		return nil, nil
	}
	rv, ok := st.(store.ReadViewer)
	if !ok {
		return nil, nil
	}
	return rv.ReadView()
}

// mix is the splitmix64 finalizer: it decorrelates shard choice from key
// patterns, so sequential keys still spread uniformly.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// ShardOf returns the shard index owning key k.
func (s *Set) ShardOf(k uint64) int { return int(mix(k) % uint64(len(s.workers))) }

// Len returns the shard count.
func (s *Set) Len() int { return len(s.workers) }

// Structure returns the name of the kv structure the shards hold.
func (s *Set) Structure() string { return s.structure.Name }

// Dir returns the set's storage directory.
func (s *Set) Dir() string { return s.dir }

// Put inserts or updates k on its shard.
func (s *Set) Put(k, v uint64) error {
	r := s.workers[s.ShardOf(k)].do(request{op: opPut, k: k, v: v})
	return r.err
}

// Get returns the value for k. Reads are served on the concurrent fast
// path when possible: a checksum-verified read runs directly against
// the shard store from the caller's goroutine, in parallel with other
// readers, gated by the shard's reader/writer gate. When the worker owns
// the gate (a group commit, save, crash image, scrub, or recovery window
// is in progress) the read falls back to the worker queue; a read whose
// verification failed falls back to be healed (see request.heal). Stats
// reports both populations (fast_gets vs gets, plus
// fast_fallbacks/fast_faults).
func (s *Set) Get(k uint64) (uint64, bool, error) {
	w := s.workers[s.ShardOf(k)]
	v, ok, err, fp := w.fastGet(k)
	if fp == fastServed {
		return v, ok, err
	}
	r := w.do(request{op: opGet, k: k, heal: fp == fastFault})
	return r.v, r.ok, r.err
}

// Del removes k, reporting whether it was present.
func (s *Set) Del(k uint64) (bool, error) {
	r := s.workers[s.ShardOf(k)].do(request{op: opDel, k: k})
	return r.ok, r.err
}

// Submit queues one operation for asynchronous completion: done is
// invoked exactly once with the result, from the shard worker goroutine
// when the op executes (or synchronously, when it can be served or
// rejected without the worker). done must not block: it runs inside the
// shard's commit loop, so a blocking callback would stall every other
// op on the shard. This is the path the server's pipelined connections
// feed — submitted writes flow straight into the shard worker queue,
// where the group-commit drain folds every queued op into one
// store batch, so deeper pipelines directly produce bigger groups.
//
// A BatchGet first tries the concurrent verified-read fast path on the
// caller's goroutine (same rules as Get) and completes inline when it
// is served; only fallback reads take the queue. If the submitting
// shard is shutting down, done receives a typed ErrShuttingDown result
// — an in-flight op never disappears silently.
func (s *Set) Submit(op BatchOp, done func(BatchResult)) {
	switch op.Kind {
	case BatchGet:
		s.SubmitGet(op.K, done)
	case BatchPut:
		s.SubmitPut(op.K, op.V, done)
	case BatchDel:
		s.SubmitDel(op.K, done)
	default:
		done(BatchResult{Err: fmt.Errorf("shard: unknown batch kind %d", op.Kind)})
	}
}

// SubmitGet is Submit for a read: the verified-read fast path runs
// inline on the caller's goroutine when it can (completing done before
// SubmitGet returns); gate-busy reads fall back to the worker queue and
// faulting reads to the worker's healing path.
func (s *Set) SubmitGet(k uint64, done func(BatchResult)) {
	w := s.workers[s.ShardOf(k)]
	v, ok, err, fp := w.fastGet(k)
	if fp == fastServed {
		done(BatchResult{V: v, OK: ok, Err: err})
		return
	}
	w.submit(request{op: opGet, k: k, heal: fp == fastFault, done: func(r response) {
		done(BatchResult{V: r.v, OK: r.ok, Err: r.err})
	}})
}

// SubmitPut is Submit for an insert/update.
func (s *Set) SubmitPut(k, v uint64, done func(BatchResult)) {
	s.workers[s.ShardOf(k)].submit(request{op: opPut, k: k, v: v, done: func(r response) {
		done(BatchResult{OK: r.err == nil, Err: r.err})
	}})
}

// SubmitDel is Submit for a delete; the result's OK reports presence.
func (s *Set) SubmitDel(k uint64, done func(BatchResult)) {
	s.workers[s.ShardOf(k)].submit(request{op: opDel, k: k, done: func(r response) {
		done(BatchResult{OK: r.ok, Err: r.err})
	}})
}

// Batch executes ops and returns their results in matching order. The
// ops are partitioned by shard; each shard executes its slice inside one
// group-committed store batch (its commit is the linearization point
// for the slice), and the shards run concurrently. There is no
// cross-shard atomicity. If a shard's batch fails, that shard's ops are
// retried individually, each with its own verdict in BatchResult.Err.
func (s *Set) Batch(ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	perShard := make([][]BatchOp, len(s.workers))
	perIdx := make([][]int, len(s.workers))
	for i, op := range ops {
		sh := s.ShardOf(op.K)
		perShard[sh] = append(perShard[sh], op)
		perIdx[sh] = append(perIdx[sh], i)
	}
	results := make([]chan response, len(s.workers))
	for sh, sub := range perShard {
		if len(sub) == 0 {
			continue
		}
		// All-GET slices take the read fast path: one reader-gate hold
		// per shard slice, no worker hop. Read-only batches have no
		// transaction even on the worker path (runGroup executes them
		// per-op), so the semantics are identical; mixed or mutating
		// slices go to the worker as before.
		fp := fastBusy
		if allGets(sub) {
			var res []BatchResult
			if res, fp = s.workers[sh].fastGetBatch(sub); fp == fastServed {
				for j, i := range perIdx[sh] {
					out[i] = res[j]
				}
				putBatchResults(res)
				continue
			}
		}
		results[sh] = s.workers[sh].send(request{op: opBatch, ops: sub, heal: fp == fastFault})
	}
	for sh, ch := range results {
		if ch == nil {
			continue
		}
		r := <-ch
		putReply(ch)
		if r.err != nil {
			// The worker rejected the request outright (closed shard):
			// every op in the slice gets the same verdict.
			for _, i := range perIdx[sh] {
				out[i] = BatchResult{Err: r.err}
			}
			continue
		}
		for j, i := range perIdx[sh] {
			out[i] = r.batch[j]
		}
		putBatchResults(r.batch)
	}
	return out
}

// allGets reports whether every op in the slice is a read.
func allGets(ops []BatchOp) bool {
	for _, op := range ops {
		if op.Kind != BatchGet {
			return false
		}
	}
	return true
}

// fanOut runs op on every worker concurrently and returns the first error.
func (s *Set) fanOut(op uint8, seed int64) error {
	results := make([]chan response, len(s.workers))
	for i, w := range s.workers {
		results[i] = w.send(request{op: op, seed: seed + int64(i)})
	}
	var first error
	for i, ch := range results {
		r := <-ch
		putReply(ch)
		if r.err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, r.err)
		}
	}
	return first
}

// Sync saves every shard durably. Each save runs on the shard's worker
// goroutine, so it never races a batch; shards save in parallel.
func (s *Set) Sync() error { return s.fanOut(opSync, 0) }

// CrashSave simulates a whole-machine power failure: every shard
// records a crash image of its state (unpersisted writes randomly
// evicted, reverted, or cut, per backend). The live set keeps running;
// reopening the directory recovers the crash state.
func (s *Set) CrashSave(seed int64) error { return s.fanOut(opCrash, seed) }

// Scrub runs a full scrubbing pass on every shard and returns the
// merged report. Each shard's pass executes as bounded incremental
// steps interleaved with its queued client requests, never as a
// stop-the-world sweep; concurrent passes on one shard coalesce.
func (s *Set) Scrub() (pangolin.ScrubReport, error) {
	results := make([]chan response, len(s.workers))
	for i, w := range s.workers {
		results[i] = w.send(request{op: opScrub})
	}
	// Merge with ScrubReport.Add — a field-by-field merge here silently
	// dropped new report fields once already.
	total := pangolin.ScrubReport{ChecksumsVerified: true}
	merged := false
	var first error
	for i, ch := range results {
		r := <-ch
		putReply(ch)
		if r.err != nil {
			if first == nil {
				first = fmt.Errorf("shard %d: %w", i, r.err)
			}
			continue
		}
		total.Add(r.scrub)
		merged = true
	}
	if !merged {
		total.ChecksumsVerified = false
	}
	return total, first
}

// InjectFaults corrupts count pseudo-randomly chosen live objects,
// spread round-robin across the shards starting at a seed-chosen shard
// — so repeated count=1 calls with advancing seeds (how pglload drives
// it) still exercise every shard, not just shard 0 (§4.6 fault
// injection; the server's INJECT op). It returns how many objects were
// actually corrupted, plus how many of the set's shards carry the
// injection hook at all (store.FaultInjector) — the capability count
// that lets an operator tell "nothing live to corrupt yet" (capable >
// 0, injected 0: retry) from "these backends cannot inject" (capable
// 0: a retry loop would spin forever). Shards without the hook inject
// nothing, explicitly. Each injection runs on its shard's worker
// goroutine, serialized with batches like every other store access.
func (s *Set) InjectFaults(seed int64, count int) (injected, capable int, err error) {
	for _, w := range s.workers {
		if w.injector != nil {
			capable++
		}
	}
	start := int(mix(uint64(seed)) % uint64(len(s.workers)))
	for i := 0; i < count; i++ {
		w := s.workers[(start+i)%len(s.workers)]
		r := w.do(request{op: opInject, seed: seed + int64(i)})
		if r.err != nil {
			if err == nil {
				err = r.err
			}
			continue
		}
		if r.ok {
			injected++
		}
	}
	return injected, capable, err
}

// ScrubHealth summarizes the maintenance subsystem's state across the
// set: how many bounded steps have run, how much corruption they
// repaired, how often backpressure skipped a step, how many steps or
// passes failed (a growing value with a stuck LastFullPass means the
// cursor cannot advance), and the oldest shard's last completed full
// pass (the set-wide "verified clean as of" bound — 0 while any shard
// has yet to finish a pass). Quarantined counts log segments parked by
// a corrupt-record merge abort: their data stays readable but is held
// back from compaction until an operator intervenes, so a nonzero
// value is a health signal, not a curiosity.
type ScrubHealth struct {
	ScrubSteps    uint64 `json:"scrub_steps"`
	BgRepairs     uint64 `json:"bg_repairs"`
	ScrubBackoffs uint64 `json:"scrub_backoffs"`
	ScrubErrors   uint64 `json:"scrub_errors"`
	LastFullPass  int64  `json:"last_full_pass_unix"`
	Quarantined   int    `json:"quarantined_segments"`
}

// ScrubHealth snapshots the set's maintenance counters.
func (s *Set) ScrubHealth() ScrubHealth {
	st := s.Stats()
	return ScrubHealth{
		ScrubSteps:    st.ScrubSteps,
		BgRepairs:     st.BgRepairs,
		ScrubBackoffs: st.ScrubBackoffs,
		ScrubErrors:   st.ScrubErrors,
		LastFullPass:  st.LastFullPass,
		Quarantined:   st.Quarantined,
	}
}

// Stats snapshots per-shard and aggregate counters.
func (s *Set) Stats() Stats {
	st := Stats{
		Structure: s.structure.Name,
		NumShards: len(s.workers),
		Shards:    make([]ShardStats, len(s.workers)),
	}
	results := make([]chan response, len(s.workers))
	for i, w := range s.workers {
		results[i] = w.send(request{op: opStats})
	}
	var backends []string
	for i, ch := range results {
		r := <-ch
		putReply(ch)
		st.Shards[i] = r.stats
		seen := false
		for _, b := range backends {
			if b == r.stats.Backend {
				seen = true
				break
			}
		}
		if !seen {
			backends = append(backends, r.stats.Backend)
		}
		st.ScrubSteps += r.stats.ScrubSteps
		st.BgRepairs += r.stats.BgRepairs
		st.ScrubBackoffs += r.stats.ScrubBackoffs
		st.ScrubErrors += r.stats.ScrubErrors
		// The aggregate last-full-pass is the OLDEST shard's: the whole
		// set is only as freshly verified as its most stale shard, and 0
		// (never) while any shard has yet to complete a pass.
		if i == 0 || r.stats.LastFullPass < st.LastFullPass {
			st.LastFullPass = r.stats.LastFullPass
		}
		st.Gets += r.stats.Gets
		st.Puts += r.stats.Puts
		st.Dels += r.stats.Dels
		st.Hits += r.stats.Hits
		st.FastGets += r.stats.FastGets
		st.FastHits += r.stats.FastHits
		st.FastFallbacks += r.stats.FastFallbacks
		st.FastFaults += r.stats.FastFaults
		st.Errors += r.stats.Errors
		st.Batches += r.stats.Batches
		st.BatchedOps += r.stats.BatchedOps
		st.GroupFallbacks += r.stats.GroupFallbacks
		st.CommitWaits += r.stats.CommitWaits
		st.Scans += r.stats.Scans
		st.ScanPairs += r.stats.ScanPairs
		st.FastScans += r.stats.FastScans
		st.FastScanPairs += r.stats.FastScanPairs
		st.ScanFallbacks += r.stats.ScanFallbacks
		st.ScanFaults += r.stats.ScanFaults
		st.SnapScans += r.stats.SnapScans
		st.SnapScanPairs += r.stats.SnapScanPairs
		st.SnapshotPins += r.stats.SnapshotPins
		st.VersionsHeld += r.stats.VersionsHeld
		st.Objects += r.stats.Objects
		st.Bytes += r.stats.Bytes
		st.Segments += r.stats.Segments
		st.Compactions += r.stats.Compactions
		st.MergedRecords += r.stats.MergedRecords
		st.DeadRecords += r.stats.DeadRecords
		st.Quarantined += r.stats.Quarantined
	}
	st.Backends = strings.Join(backends, ",")
	return st
}

// Close saves every shard and shuts the set down.
func (s *Set) Close() error {
	err := s.Sync()
	s.Abandon()
	return err
}

// Abandon shuts the set down without saving, leaving the shard files as
// they are — after CrashSave this completes the simulated machine death.
func (s *Set) Abandon() {
	s.stopMaint()
	for _, w := range s.workers {
		w.stop()
	}
	for _, st := range s.stores {
		if st != nil {
			st.Close()
		}
	}
	s.stores = nil
}

// ShardStats carries one shard's counters.
type ShardStats struct {
	Index int `json:"index"`
	// Backend names this shard's storage backend ("pangolin" or
	// "logstore").
	Backend string `json:"backend"`
	// Gets counts reads served by the worker goroutine; FastGets counts
	// reads served on the concurrent fast path (callers' goroutines,
	// checksum-verified, no worker hop). Total reads = Gets + FastGets.
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	Dels uint64 `json:"dels"`
	Hits uint64 `json:"hits"`
	// Fast-path accounting. FastFallbacks counts reads bounced to the
	// worker because the reader gate was unavailable (a group commit,
	// save, crash image, scrub, or recovery window); FastFaults counts
	// reads bounced because they hit a fault — poison or checksum
	// mismatch — that only the worker's repairing read path may fix.
	// Tests assert FastGets > 0 to prove the fast path engaged.
	FastGets      uint64 `json:"fast_gets"`
	FastHits      uint64 `json:"fast_hits"`
	FastFallbacks uint64 `json:"fast_fallbacks"`
	FastFaults    uint64 `json:"fast_faults"`
	// Errors counts failed data operations.
	Errors uint64 `json:"errors"`
	// Batches counts group commits: store batches that carried more than
	// one operation. BatchedOps is the operations they carried, so
	// BatchedOps/Batches is the shard's achieved group size.
	Batches    uint64 `json:"batches"`
	BatchedOps uint64 `json:"batched_ops"`
	// GroupFallbacks counts groups whose batch failed and whose ops were
	// retried individually.
	GroupFallbacks uint64 `json:"group_fallbacks"`
	// CommitWaits counts group commits that held the adaptive commit
	// window open (Options.CommitWait) to gather a deeper batch.
	CommitWaits uint64 `json:"commit_waits"`
	// Scan chunk accounting, mirroring the Get split: FastScans counts
	// chunks served on the concurrent fast path (view scans under the
	// reader gate, no worker hop) and Scans counts chunks served by the
	// worker's repairing path; ScanFallbacks/ScanFaults count chunks
	// bounced to the worker by cause (gate busy/freeze vs a fault
	// needing repair). Pairs are the key/value pairs the chunks
	// returned. Tests assert FastScans > 0 to prove fast-path scans
	// engage.
	Scans         uint64 `json:"scans"`
	ScanPairs     uint64 `json:"scan_pairs"`
	FastScans     uint64 `json:"fast_scans"`
	FastScanPairs uint64 `json:"fast_scan_pairs"`
	ScanFallbacks uint64 `json:"scan_fallbacks"`
	ScanFaults    uint64 `json:"scan_faults"`
	// Maintenance health. ScrubSteps counts bounded scrub steps executed
	// on this shard (scheduler ticks, full passes, and heal-retry
	// passes); BgRepairs counts the objects/pages/parity columns the
	// scheduler's steps repaired; ScrubBackoffs counts steps skipped
	// because the worker was busy (traffic wins); ScrubErrors counts
	// steps and passes that FAILED — a growing value with a stuck
	// LastFullPass is the signal that the cursor cannot advance;
	// LastFullPass is the unix time the shard last completed a full
	// pass (0 = never).
	ScrubSteps    uint64 `json:"scrub_steps"`
	BgRepairs     uint64 `json:"bg_repairs"`
	ScrubBackoffs uint64 `json:"scrub_backoffs"`
	ScrubErrors   uint64 `json:"scrub_errors"`
	LastFullPass  int64  `json:"last_full_pass_unix"`
	// Snapshot accounting. SnapScans counts pinned-generation scan chunks
	// served on either path (fast readers and the worker fallback);
	// SnapshotPins is the shard's currently pinned distinct generations
	// and VersionsHeld the superseded versions its version buffer retains
	// for them — both fall back to zero when the last snapshot releases.
	SnapScans     uint64 `json:"snap_scans"`
	SnapScanPairs uint64 `json:"snap_scan_pairs"`
	SnapshotPins  int    `json:"snapshot_pins,omitempty"`
	VersionsHeld  int    `json:"versions_retained,omitempty"`
	Objects       int    `json:"objects"`
	Bytes         uint64 `json:"bytes"`
	// Log-backend counters, zero on pangolin shards: Segments is the
	// shard's current segment file count; Compactions counts merged
	// (deleted) segments; MergedRecords counts live records compaction
	// copied forward; DeadRecords is the currently reclaimable record
	// count (overwritten or deleted entries still occupying log space);
	// Quarantined counts segments parked by a corrupt-record merge abort —
	// still scanned on recovery, never compacted, invisible to no one:
	// a nonzero value is the operator's signal that detected corruption
	// is pinned in place (detect-only backend, nothing to rebuild from).
	Segments      int    `json:"segments,omitempty"`
	Compactions   uint64 `json:"compactions,omitempty"`
	MergedRecords uint64 `json:"merged_records,omitempty"`
	DeadRecords   uint64 `json:"dead_records,omitempty"`
	Quarantined   int    `json:"quarantined_segments,omitempty"`
}

// Stats aggregates the set's counters.
type Stats struct {
	Structure string `json:"structure"`
	// Backends lists the distinct shard backends in shard order
	// ("pangolin", "logstore", or "pangolin,logstore" for a mixed set).
	Backends       string       `json:"backends"`
	NumShards      int          `json:"num_shards"`
	Gets           uint64       `json:"gets"`
	Puts           uint64       `json:"puts"`
	Dels           uint64       `json:"dels"`
	Hits           uint64       `json:"hits"`
	FastGets       uint64       `json:"fast_gets"`
	FastHits       uint64       `json:"fast_hits"`
	FastFallbacks  uint64       `json:"fast_fallbacks"`
	FastFaults     uint64       `json:"fast_faults"`
	Errors         uint64       `json:"errors"`
	Batches        uint64       `json:"batches"`
	BatchedOps     uint64       `json:"batched_ops"`
	GroupFallbacks uint64       `json:"group_fallbacks"`
	CommitWaits    uint64       `json:"commit_waits"`
	Scans          uint64       `json:"scans"`
	ScanPairs      uint64       `json:"scan_pairs"`
	FastScans      uint64       `json:"fast_scans"`
	FastScanPairs  uint64       `json:"fast_scan_pairs"`
	ScanFallbacks  uint64       `json:"scan_fallbacks"`
	ScanFaults     uint64       `json:"scan_faults"`
	ScrubSteps     uint64       `json:"scrub_steps"`
	BgRepairs      uint64       `json:"bg_repairs"`
	ScrubBackoffs  uint64       `json:"scrub_backoffs"`
	ScrubErrors    uint64       `json:"scrub_errors"`
	LastFullPass   int64        `json:"last_full_pass_unix"` // oldest shard's; 0 while any shard has no pass
	SnapScans      uint64       `json:"snap_scans"`
	SnapScanPairs  uint64       `json:"snap_scan_pairs"`
	SnapshotPins   int          `json:"snapshot_pins"`
	VersionsHeld   int          `json:"versions_retained"`
	Objects        int          `json:"objects"`
	Bytes          uint64       `json:"bytes"`
	Segments       int          `json:"segments"`
	Compactions    uint64       `json:"compactions"`
	MergedRecords  uint64       `json:"merged_records"`
	DeadRecords    uint64       `json:"dead_records"`
	Quarantined    int          `json:"quarantined_segments"`
	Shards         []ShardStats `json:"shards"`
}

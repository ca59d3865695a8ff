package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// Fixed sizes of the per-layer replays, so their counts repeat exactly.
const (
	replayOps  = 4096 // point ops per store and core replay pass
	scanProbes = 8    // idle SCANs and SNAPSCANs per layer in the scan peel
	coreFaults = 8    // faults injected, one per scrub pass, into the fully protected pool
	loadGroup  = 256  // ops per batch when preloading a single store or pool
)

// ladder is the paper's mode ladder (Fig. 3): each rung adds one
// protection to the one before.
var ladder = []struct {
	name string
	mode pangolin.Mode
}{
	{"pangolin", pangolin.ModePangolin},
	{"ml", pangolin.ModePangolinML},
	{"mlp", pangolin.ModePangolinMLP},
	{"mlpc", pangolin.ModePangolinMLPC},
}

// layers is the traced run. It drives the served set as the end-to-end
// run does, peels the layers by replaying one seeded op stream, scans
// included, through server.Client and then straight into the shard set
// (Set.Submit*, Set.Scan, Set.OpenSnapshot), and replays a second stream
// through a single pangolinstore.Store and a bare pangolin.Pool per mode.
func (b *bench) layers() error {
	r := b.report
	l, _, err := b.setupTimed(1)
	if err != nil {
		return err
	}
	ct := newClientTarget(l.clients)
	warm, closed, open := b.durations()
	b.closedLoop(ct, "warm", warm, "")

	// Untraced closed loop: the base of the trace overhead, and the
	// window of the runtime and shard counters.
	st0, rt0 := l.set.Stats(), readRuntime()
	opsU, elU, _ := b.closedLoop(ct, "closed", closed/3, "")
	rt1, st1 := readRuntime(), l.set.Stats()
	r.set("server.allocs_per_op", "allocs/op", ratio(float64(rt1.allocObjs-rt0.allocObjs), float64(opsU)))
	r.set("server.alloc_bytes_per_op", "B/op", ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(opsU)))
	r.set("server.gc_cpu_frac", "gc/total_cpu", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	b.shardCounters(st0, st1)

	// The same stream through the server and then straight into the
	// shard set, at the same in-flight count.
	opsT, elT, _ := b.closedLoop(ct, "peel", closed/3, "server")
	b.closedLoop(newShardTarget(l.set, b.w.slots(), b.w.conns), "peel", closed/3, "shard")
	r.set("loadgen.trace_overhead", "traced/untraced", ratio(float64(opsT)/elT.Seconds(), float64(opsU)/elU.Seconds()))
	b.peelPoint()

	// Open loop at the workload's rate, untraced.
	stopPeak := b.versionsPeak(l.set)
	res := b.openLoop(ct, open, b.w.rate)
	r.set("store.versions_retained_peak", "versions", float64(stopPeak()))
	r.set("loadgen.late_p99_us", "us", percentile(res.late, 0.99))

	b.peelScans(l)
	set, _, err := b.crashRecover(l, 1)
	if err != nil {
		return err
	}
	b.verify(set)
	var keys []uint64 // shard 0's share of the key space
	for k := 0; k < b.w.keys; k++ {
		if set.ShardOf(uint64(k)) == 0 {
			keys = append(keys, uint64(k))
		}
	}
	set.Abandon()
	if err := b.storeLayer(keys); err != nil {
		return err
	}
	return b.coreLayer(keys)
}

// shardCounters reports the shard set's group-commit and read-path
// counters over one window.
func (b *bench) shardCounters(a, z shard.Stats) {
	r := b.report
	batches := float64(z.Batches - a.Batches)
	r.set("shard.group_depth_mean", "ops/batch", ratio(float64(z.BatchedOps-a.BatchedOps), batches))
	r.set("shard.commit_waits_per_batch", "waits/batch", ratio(float64(z.CommitWaits-a.CommitWaits), batches))
	r.set("shard.group_fallbacks", "groups", float64(z.GroupFallbacks-a.GroupFallbacks))
	reads := float64(z.FastGets - a.FastGets + z.Gets - a.Gets)
	r.set("shard.fast_get_ratio", "fast/all_gets", ratio(float64(z.FastGets-a.FastGets), reads))
	r.set("shard.fast_fallback_ratio", "bounced/all_gets",
		ratio(float64(z.FastFallbacks-a.FastFallbacks+z.FastFaults-a.FastFaults), reads))
	r.set("shard.fast_scan_ratio", "fast/all_chunks",
		ratio(float64(z.FastScans-a.FastScans), float64(z.FastScans-a.FastScans+z.Scans-a.Scans)))
	r.set("shard.scan_fallbacks", "chunks", float64(z.ScanFallbacks-a.ScanFallbacks))
}

// peelPoint reports the server and shard call times over the point ops
// both replays sent, and the server's self time as their difference.
func (b *bench) peelPoint() {
	calls := func(layer string) map[uint64]float64 {
		out := map[uint64]float64{}
		for _, s := range b.tr.spans {
			switch s.name {
			case layer + ".get", layer + ".put", layer + ".del":
				out[s.opID] = micros(s.dur())
			}
		}
		return out
	}
	srv, sh := calls("server"), calls("shard")
	var srvD, shD []float64
	for id, d := range srv {
		if e, ok := sh[id]; ok {
			srvD, shD = append(srvD, d), append(shD, e)
		}
	}
	r := b.report
	r.set("server.call_p50_us", "us", percentile(srvD, 0.50))
	r.set("server.call_p99_us", "us", percentile(srvD, 0.99))
	r.set("shard.call_p50_us", "us", percentile(shD, 0.50))
	r.set("shard.call_p99_us", "us", percentile(shD, 0.99))
	r.set("server.self_p50_us", "us", percentile(srvD, 0.50)-percentile(shD, 0.50))
	r.detail["peel_ops"] = len(srvD)
}

// versionsPeak samples the set's retained MVCC versions until the
// returned function stops it and returns the peak.
func (b *bench) versionsPeak(set *shard.Set) func() int {
	peak := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			peak = max(peak, set.Stats().VersionsHeld)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}

// peelScans sends scanProbes SCANs and SNAPSCANs one at a time through
// the server and then the same ranges straight into the shard set, with
// no other traffic. Every workload runs it, whatever its mix.
func (b *bench) peelScans(l *live) {
	parent, endPhase := b.tr.phase("scans")
	defer endPhase()
	buf := &buffer{parent: parent}
	defer b.tr.merge(buf)
	g := newGen(&b.w, b.seed, "scans", 0, false)
	ct := newClientTarget(l.clients[:1])
	var probes []op
	for i := 0; i < scanProbes; i++ {
		probes = append(probes, g.opFor(opScan, 0, 1), g.opFor(opSnap, 0, 1))
	}
	for i, o := range probes {
		t0 := time.Now()
		_, err := ct.do(0, o)
		buf.add("server."+o.kind.String(), uint64(i), b.tr.since(t0), b.tr.since(time.Now()))
		b.tally.add(o, err)
	}
	for i, o := range probes {
		t0 := time.Now()
		err := shardScan(l.set, o)
		buf.add("shard."+o.kind.String(), uint64(i), b.tr.since(t0), b.tr.since(time.Now()))
		b.tally.add(o, err)
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range buf.spans {
			if s.name == name {
				out = append(out, micros(s.dur()))
			}
		}
		return out
	}
	for _, layer := range []string{"server", "shard"} {
		for _, k := range []opKind{opScan, opSnap} {
			b.report.set(fmt.Sprintf("%s.%s_p50_us", layer, k), "us", median(durs(layer+"."+k.String())))
		}
	}
}

// shardScan runs one scan op against the shard set's own scan entry
// points, paging as the server does, and checks its pages.
func shardScan(set *shard.Set, o op) error {
	if o.kind == opScan {
		pairs, _, _, err := set.Scan(o.k, o.hi, scanPairs)
		if err != nil {
			return err
		}
		_, err = checkPage(pairs, o, 0, false)
		return err
	}
	sn, err := set.OpenSnapshot()
	if err != nil {
		return err
	}
	defer sn.Release()
	var last uint64
	seen := false
	for lo := o.k; ; {
		pairs, next, more, err := sn.Scan(lo, o.hi, snapPage)
		if err != nil {
			return err
		}
		if last, err = checkPage(pairs, o, last, seen); err != nil {
			return err
		}
		seen = seen || len(pairs) > 0
		if !more {
			return nil
		}
		lo = next
	}
}

// replayStream draws replayOps point ops over keys from the workload's
// point-op mix; every replay of one run uses the same stream.
func (b *bench) replayStream(keys []uint64) []store.Op {
	g := newGen(&b.w, b.seed, "replay", 0, true)
	ops := make([]store.Op, replayOps)
	for i := range ops {
		kind := g.kind()
		k := keys[g.r.Intn(len(keys))]
		ops[i] = store.Op{Kind: storeKinds[kind], K: k}
		if kind == opPut {
			ops[i].V = newValue(k, g.r)
		}
	}
	return ops
}

var storeKinds = [numKinds]uint8{opGet: store.OpGet, opPut: store.OpPut, opDel: store.OpDel}

// replayModel checks a replay's results against the expected state.
type replayModel map[uint64]uint64

func newReplayModel(keys []uint64) replayModel {
	m := replayModel{}
	for _, k := range keys {
		m[k] = preloadValue(k)
	}
	return m
}

func (m replayModel) check(o store.Op, r store.Result) error {
	want, present := m[o.K]
	switch o.Kind {
	case store.OpGet:
		if r.OK != present || (present && r.V != want) {
			return violationf("replay get %d = (%#x, %v), want (%#x, %v)", o.K, r.V, r.OK, want, present)
		}
	case store.OpPut:
		m[o.K] = o.V
	case store.OpDel:
		if r.OK != present {
			return violationf("replay del %d reported present=%v, want %v", o.K, r.OK, present)
		}
		delete(m, o.K)
	}
	return nil
}

// persistCounts is the NVM and log traffic of one replay pass.
type persistCounts struct {
	flushes, fences, bytesFlushed, logged uint64
}

func readPersist(p *pangolin.Pool) persistCounts {
	d := p.Device().Stats()
	return persistCounts{d.Flushes.Load(), d.Fences.Load(), d.BytesFlushed.Load(), p.Stats().LoggedBytes.Load()}
}

func (b *bench) setPersist(suffix string, a, z persistCounts, ops int) {
	n := float64(ops)
	b.report.set("nvm.flushes_per_op."+suffix, "flushes/op", float64(z.flushes-a.flushes)/n)
	b.report.set("nvm.fences_per_op."+suffix, "fences/op", float64(z.fences-a.fences)/n)
	b.report.set("nvm.bytes_flushed_per_op."+suffix, "B/op", float64(z.bytesFlushed-a.bytesFlushed)/n)
	b.report.set("core.logged_bytes_per_op."+suffix, "B/op", float64(z.logged-a.logged)/n)
}

func (b *bench) poolConfig(m pangolin.Mode) pangolin.Config {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = zones
	return pangolin.Config{Mode: m, Geometry: geo}
}

// storeLayer is the deterministic persist pass: one goroutine replays
// the stream through pangolinstore.Store.Apply, first one op per batch,
// then groupDepth ops per batch, on a fresh store holding shard 0's keys.
func (b *bench) storeLayer(keys []uint64) error {
	_, endPhase := b.tr.phase("store")
	defer endPhase()
	structure, err := registry.ByName(b.w.structure)
	if err != nil {
		return err
	}
	pools, err := pangolin.NewPoolSet(filepath.Join(b.dir, "store"), 1, b.poolConfig(pangolin.ModePangolinMLPC))
	if err != nil {
		return err
	}
	st, err := pangolinstore.Create(pools, 0, structure, pangolin.ScrubberConfig{})
	if err != nil {
		pools.Close()
		return err
	}
	defer st.Close()
	for i := 0; i < len(keys); i += loadGroup {
		batch := make([]store.Op, 0, loadGroup)
		for _, k := range keys[i:min(i+loadGroup, len(keys))] {
			batch = append(batch, store.Op{Kind: store.OpPut, K: k, V: preloadValue(k)})
		}
		if _, err := st.Apply(batch); err != nil {
			return fmt.Errorf("store preload: %w", err)
		}
	}
	b.report.set("store.bytes_per_pair", "B/pair", ratio(float64(st.Stats().Bytes), float64(len(keys))))
	ops := b.replayStream(keys)
	model := newReplayModel(keys)
	for _, pass := range []struct {
		name  string
		depth int
	}{{"d1", 1}, {"group", b.w.groupDepth}} {
		var per []float64
		a := readPersist(st.Pool())
		for i := 0; i < len(ops); i += pass.depth {
			batch := ops[i:min(i+pass.depth, len(ops))]
			t0 := time.Now()
			res, err := st.Apply(batch)
			per = append(per, micros(time.Since(t0))/float64(len(batch)))
			if err != nil {
				return fmt.Errorf("store apply: %w", err)
			}
			for j, o := range batch {
				if err := model.check(o, res[j]); err != nil {
					b.tally.fail(err)
				}
			}
		}
		b.setPersist(pass.name, a, readPersist(st.Pool()), len(ops))
		b.report.set("store.apply_p50_us."+pass.name, "us/op", median(per))
	}
	var gets []float64
	for _, o := range ops {
		t0 := time.Now()
		v, ok, err := st.Get(o.K)
		gets = append(gets, micros(time.Since(t0)))
		if err == nil {
			err = model.check(store.Op{Kind: store.OpGet, K: o.K}, store.Result{V: v, OK: ok})
		}
		if err != nil {
			b.tally.fail(err)
		}
	}
	b.report.set("store.get_p50_us", "us", median(gets))
	return nil
}

// coreLayer replays the stream at group depth through a bare pangolin.Pool
// per rung of the mode ladder, then, on the fully protected pool, measures
// verified reads and injects the workload's faults and scrubs them.
func (b *bench) coreLayer(keys []uint64) error {
	_, endPhase := b.tr.phase("core")
	defer endPhase()
	structure, err := registry.ByName(b.w.structure)
	if err != nil {
		return err
	}
	ops := b.replayStream(keys)
	depth := b.w.groupDepth
	for _, rung := range ladder {
		pool, err := pangolin.Create(b.poolConfig(rung.mode))
		if err != nil {
			return err
		}
		m, err := structure.New(pool)
		if err != nil {
			pool.Close()
			return err
		}
		err = b.coreRung(pool, structure, m, rung.name, keys, ops, depth)
		pool.Close()
		if err != nil {
			return fmt.Errorf("core %s: %w", rung.name, err)
		}
	}
	return nil
}

func (b *bench) coreRung(pool *pangolin.Pool, structure registry.Structure, m kv.Map, name string, keys []uint64, ops []store.Op, depth int) error {
	for i := 0; i < len(keys); i += loadGroup {
		if err := pool.Run(func(tx *pangolin.Tx) error {
			for _, k := range keys[i:min(i+loadGroup, len(keys))] {
				if err := m.InsertTx(tx, k, preloadValue(k)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	model := newReplayModel(keys)
	var per []float64
	a := readPersist(pool)
	st := pool.Stats()
	st.MBufHighWater.Store(st.MBufBytes.Load()) // the gauge's peak over the replay alone
	for i := 0; i < len(ops); i += depth {
		batch := ops[i:min(i+depth, len(ops))]
		res := make([]store.Result, len(batch))
		t0 := time.Now()
		err := pool.Run(func(tx *pangolin.Tx) error {
			for j, o := range batch {
				var err error
				switch o.Kind {
				case store.OpGet:
					res[j].V, res[j].OK, err = m.LookupTx(tx, o.K)
				case store.OpPut:
					err = m.InsertTx(tx, o.K, o.V)
				case store.OpDel:
					res[j].OK, err = m.RemoveTx(tx, o.K)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		per = append(per, micros(time.Since(t0))/float64(len(batch)))
		if err != nil {
			return err
		}
		for j, o := range batch {
			if err := model.check(o, res[j]); err != nil {
				b.tally.fail(err)
			}
		}
	}
	b.report.set("core.apply_p50_us."+name, "us/op", median(per))
	if name != "mlpc" {
		b.setPersist(name, a, readPersist(pool), len(ops))
		return nil
	}
	// mlpc: its group counts are the store pass's "group" figures. Reads
	// go through a read view, the concurrent verified path the shard
	// fast path uses.
	b.report.set("core.mbuf_high_water_bytes", "B", float64(st.MBufHighWater.Load()))
	view, err := structure.Attach(pool.ReadView(), m.Anchor())
	if err != nil {
		return fmt.Errorf("attach read view: %w", err)
	}
	v0, reads := st.VerifiedBytes.Load(), 0
	for _, o := range ops {
		if o.Kind != store.OpGet {
			continue
		}
		v, ok, err := view.Lookup(o.K)
		if err == nil {
			err = model.check(store.Op{Kind: store.OpGet, K: o.K}, store.Result{V: v, OK: ok})
		}
		if err != nil {
			b.tally.fail(err)
		}
		reads++
	}
	b.report.set("core.verified_bytes_per_get", "B/get", ratio(float64(st.VerifiedBytes.Load()-v0), float64(reads)))

	// Faults one at a time, each followed by a full scrub pass that must
	// heal it; the first pass runs on the clean pool. No read runs between
	// a fault and its scrub: under the default verification policy a read
	// that follows a scribbled pointer fails rather than repairs.
	var passes []float64
	var healed, repaired int
	for i := 0; i <= coreFaults; i++ {
		if i > 0 {
			pool.InjectRandomFault(streamSeed(b.seed, "fault", i))
		}
		t0 := time.Now()
		rep, err := pool.Scrub()
		passes = append(passes, float64(time.Since(t0))/float64(time.Millisecond))
		healed, repaired = healed+rep.PagesHealed, repaired+rep.Repaired
		if err == nil && (rep.Unrecovered != 0 || rep.PagesUnrecovered != 0) {
			err = violationf("core scrub: %d objects and %d pages unrecovered", rep.Unrecovered, rep.PagesUnrecovered)
		}
		if err != nil {
			b.tally.fail(err)
		}
	}
	b.report.set("core.scrub_pass_ms", "ms", median(passes))
	b.report.set("core.recovered_pages", "pages", float64(healed))
	b.report.set("core.repaired_objects", "objects", float64(repaired))
	for _, k := range keys {
		want, present := model[k]
		v, ok, err := view.Lookup(k)
		if err == nil && (ok != present || v != want) {
			err = violationf("core get %d after scrub = (%#x, %v), want (%#x, %v)", k, v, ok, want, present)
		}
		if err != nil {
			b.tally.fail(err)
		}
	}
	return nil
}

package shard

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
)

// Tests for the concurrent verified-read fast path: engagement (reads
// actually bypass the worker), fallback (gate contention, faults,
// shutdown), and the -race reader/writer torture that hammers Get storms
// against group commits, saves, scrubs, and crash images.

// encode packs a per-key sequence number and the key into one value so
// a torn read is detectable from a single Get.
func encode(seq, k uint64) uint64 { return seq<<32 | (k & 0xFFFFFFFF) }

// TestFastPathEngagesWhenIdle: with no writer running, every read must
// be served on the fast path — zero worker round-trips.
func TestFastPathEngagesWhenIdle(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 64; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != encode(0, k) {
			t.Fatalf("get %d = (%#x,%v,%v)", k, v, ok, err)
		}
	}
	st := s.Stats()
	if st.FastGets != 64 || st.Gets != 0 {
		t.Fatalf("idle reads not all fast: fast=%d worker=%d (fallbacks=%d faults=%d)",
			st.FastGets, st.Gets, st.FastFallbacks, st.FastFaults)
	}
	if st.FastHits != 64 {
		t.Fatalf("fast hits = %d, want 64", st.FastHits)
	}
}

// TestFastPathMGetBatch: an all-GET batch takes the fast path (one gate
// hold for the slice), a mixed batch does not.
func TestFastPathMGetBatch(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]BatchOp, 32)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchGet, K: uint64(i)}
	}
	res := s.Batch(ops)
	for i, r := range res {
		if r.Err != nil || !r.OK || r.V != encode(0, uint64(i)) {
			t.Fatalf("batch get %d = %+v", i, r)
		}
	}
	st := s.Stats()
	if st.FastGets != 32 {
		t.Fatalf("all-GET batch bypassed the fast path: %+v", st)
	}
	// Mixed slices go to the worker.
	mixed := []BatchOp{{Kind: BatchGet, K: 1}, {Kind: BatchPut, K: 1, V: 7}}
	for _, r := range s.Batch(mixed) {
		if r.Err != nil {
			t.Fatalf("mixed batch: %v", r.Err)
		}
	}
	st2 := s.Stats()
	if st2.FastGets != st.FastGets {
		t.Fatalf("mixed batch took the read fast path: %+v", st2)
	}
}

// TestFastPathFallsBackWhenGateHeld: while the worker side of the gate
// is held (as during a commit, save, scrub, or crash window), fastGet
// must decline — counting a fallback — rather than block or race.
func TestFastPathFallsBackWhenGateHeld(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	if err := s.Put(1, encode(0, 1)); err != nil {
		t.Fatal(err)
	}
	w := s.workers[0]
	w.gate.Lock()
	if _, _, _, fp := w.fastGet(1); fp != fastBusy {
		w.gate.Unlock()
		t.Fatal("fastGet served a read while the writer gate was held")
	}
	if _, fp := w.fastGetBatch([]BatchOp{{Kind: BatchGet, K: 1}}); fp != fastBusy {
		w.gate.Unlock()
		t.Fatal("fastGetBatch served a slice while the writer gate was held")
	}
	w.gate.Unlock()
	if n := w.fastFallbacks.Load(); n != 2 {
		t.Fatalf("fallbacks = %d, want 2", n)
	}
	// After release the fast path resumes.
	if v, ok, err := s.Get(1); err != nil || !ok || v != encode(0, 1) {
		t.Fatalf("get after gate release = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastGets.Load() == 0 {
		t.Fatal("fast path did not resume after gate release")
	}
}

// TestFastPathFaultFallsBackToRepair: a poisoned page under the
// structure must bounce the read to the worker — whose repairing path
// fixes it online — and be counted as a fast fault; the caller still
// gets the right answer with no error.
func TestFastPathFaultFallsBackToRepair(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.workers[0]
	ps := w.st.(*pangolinstore.Store)
	ps.Pool().InjectMediaError(ps.Map().Anchor().Off)
	if v, ok, err := s.Get(3); err != nil || !ok || v != encode(0, 3) {
		t.Fatalf("get across media error = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastFaults.Load() == 0 {
		t.Fatal("fault was not observed by the fast path")
	}
	// Repaired: subsequent reads are fast again.
	before := w.fastGets.Load()
	if v, ok, err := s.Get(3); err != nil || !ok || v != encode(0, 3) {
		t.Fatalf("get after repair = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastGets.Load() != before+1 {
		t.Fatal("fast path did not resume after online repair")
	}
}

// hashmapEntryOff returns the pool offset of key k's chain entry in a
// hashmap shard, walking the structure's on-media layout: the anchor
// starts with the table OID; the table is a 16-byte header (bucket
// count first) then one OID per bucket; an entry is Next OID, key,
// value.
func hashmapEntryOff(t *testing.T, ps *pangolinstore.Store, k uint64) uint64 {
	t.Helper()
	p := ps.Pool()
	oid := func(b []byte) pangolin.OID {
		return pangolin.OID{Pool: binary.LittleEndian.Uint64(b), Off: binary.LittleEndian.Uint64(b[8:])}
	}
	a, err := p.Get(ps.Map().Anchor())
	if err != nil {
		t.Fatal(err)
	}
	table, err := p.Get(oid(a))
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint64(table)
	for cur := oid(table[16+(k*0x9E3779B97F4A7C15%n)*16:]); !cur.IsNil(); {
		e, err := p.Get(cur)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(e[16:]) == k {
			return cur.Off
		}
		cur = oid(e)
	}
	t.Fatalf("key %d not found", k)
	return 0
}

// TestFastPathScribbleHealedNotServed: a value scribbled under the fast
// path fails its verified read, and every fast-path entry point then
// heals it on the worker — a verified re-read after a repair pass —
// instead of serving the scribbled bytes through an owner read that
// does not verify.
func TestFastPathScribbleHealedNotServed(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	defer s.Abandon()
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.workers[0]
	ps := w.st.(*pangolinstore.Store)
	valOff := hashmapEntryOff(t, ps, 3) + 24
	want := encode(0, 3)
	reads := []struct {
		name string
		get  func() (uint64, bool, error)
	}{
		{"Get", func() (uint64, bool, error) { return s.Get(3) }},
		{"SubmitGet", func() (uint64, bool, error) {
			ch := make(chan BatchResult, 1)
			s.SubmitGet(3, func(r BatchResult) { ch <- r })
			r := <-ch
			return r.V, r.OK, r.Err
		}},
		{"Batch", func() (uint64, bool, error) {
			r := s.Batch([]BatchOp{{Kind: BatchGet, K: 3}, {Kind: BatchGet, K: 4}})
			if r[1].Err == nil && r[1].V != encode(0, 4) {
				t.Errorf("batch neighbour = %#x", r[1].V)
			}
			return r[0].V, r[0].OK, r[0].Err
		}},
		{"Scan", func() (uint64, bool, error) {
			pairs, _, _, err := s.Scan(3, 3, 4)
			if err != nil || len(pairs) != 1 {
				return 0, false, err
			}
			return pairs[0].V, true, nil
		}},
		{"SnapScan", func() (uint64, bool, error) {
			sn, err := s.OpenSnapshot()
			if err != nil {
				return 0, false, err
			}
			defer sn.Release()
			pairs, _, _, err := sn.Scan(3, 3, 4)
			if err != nil || len(pairs) != 1 {
				return 0, false, err
			}
			return pairs[0].V, true, nil
		}},
	}
	for i, r := range reads {
		faults := w.fastFaults.Load() + w.scanFaults.Load()
		ps.Pool().InjectScribble(valOff, 8, int64(99+i))
		v, ok, err := r.get()
		if err != nil || !ok || v != want {
			t.Fatalf("%s over a scribbled value = (%#x, %v, %v), want (%#x, true, nil)", r.name, v, ok, err, want)
		}
		if w.fastFaults.Load()+w.scanFaults.Load() == faults {
			t.Fatalf("%s: the fast path did not see the scribble", r.name)
		}
	}
}

// TestFastPathHealReadStaysOutOfGroups: a read queued to be healed must
// not join a group commit, whose in-transaction lookups do not verify.
// The worker is held off (gate) while two puts and the heal read queue
// up, so the drain would otherwise fold all three into one batch.
func TestFastPathHealReadStaysOutOfGroups(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	defer s.Abandon()
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.workers[0]
	ps := w.st.(*pangolinstore.Store)
	ps.Pool().InjectScribble(hashmapEntryOff(t, ps, 3)+24, 8, 99)
	puts := make(chan BatchResult, 2)
	got := make(chan response, 1)
	w.gate.Lock()
	s.SubmitPut(100, 1, func(r BatchResult) { puts <- r })
	s.SubmitPut(101, 1, func(r BatchResult) { puts <- r })
	w.submit(request{op: opGet, k: 3, heal: true, done: func(r response) { got <- r }})
	w.gate.Unlock()
	for range 2 {
		if r := <-puts; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if r := <-got; r.err != nil || !r.ok || r.v != encode(0, 3) {
		t.Fatalf("heal read = (%#x, %v, %v), want (%#x, true, nil)", r.v, r.ok, r.err, encode(0, 3))
	}
}

// TestFastPathScribbledBucketCountHeals: the hashmap table is larger
// than the view's verify limit, so a scribbled bucket count is caught
// by the structure's own count check; the typed corruption it returns
// routes the read to the worker, which repairs the table from parity
// and serves every key.
func TestFastPathScribbledBucketCountHeals(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	defer s.Abandon()
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.workers[0]
	ps := w.st.(*pangolinstore.Store)
	a, err := ps.Pool().Get(ps.Map().Anchor())
	if err != nil {
		t.Fatal(err)
	}
	ps.Pool().Device().WriteAt(binary.LittleEndian.Uint64(a[8:]), []byte{0xe0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	for k := uint64(0); k < 8; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != encode(0, k) {
			t.Fatalf("get %d over a scribbled bucket count = (%#x, %v, %v)", k, v, ok, err)
		}
	}
	if w.fastFaults.Load() == 0 {
		t.Fatal("the fast path did not see the scribbled count")
	}
}

// TestGetShuttingDownTyped: after Abandon, Get (and Batch) report the
// typed ErrShuttingDown — distinguishable from a real lookup error.
func TestGetShuttingDownTyped(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	if err := s.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	if _, _, err := s.Get(1); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Get after Abandon = %v, want ErrShuttingDown", err)
	}
	if err := s.Put(1, 3); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Put after Abandon = %v, want ErrShuttingDown", err)
	}
	for _, r := range s.Batch([]BatchOp{{Kind: BatchGet, K: 1}}) {
		if !errors.Is(r.Err, ErrShuttingDown) {
			t.Fatalf("Batch after Abandon = %v, want ErrShuttingDown", r.Err)
		}
	}
}

// TestSerialReadsOption: with SerialReads every read goes through the
// worker; the fast-path counters stay zero.
func TestSerialReadsOption(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{SerialReads: true})
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := s.Get(k); err != nil || !ok || v != k {
			t.Fatalf("serial get %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
	st := s.Stats()
	if st.FastGets != 0 || st.FastFallbacks != 0 {
		t.Fatalf("serial mode used the fast path: %+v", st)
	}
	if st.Gets != 32 {
		t.Fatalf("serial gets = %d, want 32", st.Gets)
	}
}

// TestReadWriteTorture is the -race reader/writer torture: concurrent
// Get storms (single and MGET-shaped) run against group-committing
// writers, delete churn, and a chaos goroutine cycling Sync, Scrub, and
// CrashSave on the live set. Readers assert values are never torn
// (low bits echo the key) and never regress per key; afterwards the
// snapshot directory must reopen clean. Short mode shrinks the clock;
// the nightly workflow runs the full version.
func TestReadWriteTorture(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{QueueLen: 32})

	const keySpace = 512 // writers: [0,256), delete churn: [256,512)
	for k := uint64(0); k < keySpace; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 400 * time.Millisecond
	}
	deadline := time.After(duration)
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	var wg sync.WaitGroup
	// Writers: disjoint key ranges, monotonically increasing sequence.
	const writers = 3
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			lo, hi := uint64(wr)*80, uint64(wr)*80+80
			for seq := uint64(1); ; seq++ {
				for k := lo; k < hi; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(k, encode(seq, k)); err != nil {
						fail("writer %d put %d: %v", wr, k, err)
						return
					}
				}
			}
		}(wr)
	}
	// Delete churn on its own range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			for k := uint64(256); k < 320; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Del(k); err != nil {
					fail("del %d: %v", k, err)
					return
				}
				if err := s.Put(k, encode(seq, k)); err != nil {
					fail("reinsert %d: %v", k, err)
					return
				}
			}
		}
	}()
	// Readers: Get storms with per-key monotonicity checks.
	const readers = 6
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeq := make(map[uint64]uint64, keySpace)
			k := uint64(r * 37)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k = (k*2654435761 + 1) % keySpace
				v, ok, err := s.Get(k)
				if err != nil {
					fail("reader %d get %d: %v", r, k, err)
					return
				}
				if !ok {
					continue // delete-churn range
				}
				if v&0xFFFFFFFF != k {
					fail("reader %d: key %d torn value %#x", r, k, v)
					return
				}
				if seq := v >> 32; seq < lastSeq[k] {
					fail("reader %d: key %d regressed seq %d after %d", r, k, seq, lastSeq[k])
					return
				} else {
					lastSeq[k] = seq
				}
			}
		}(r)
	}
	// MGET-shaped reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := make([]BatchOp, 16)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range ops {
				ops[j] = BatchOp{Kind: BatchGet, K: uint64((i*16 + j) % keySpace)}
			}
			for j, r := range s.Batch(ops) {
				if r.Err != nil {
					fail("mget: %v", r.Err)
					return
				}
				if r.OK && r.V&0xFFFFFFFF != ops[j].K {
					fail("mget: key %d torn value %#x", ops[j].K, r.V)
					return
				}
			}
		}
	}()
	// Chaos: saves, scrubs, crash images against the live set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(1)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if err := s.Sync(); err != nil {
				fail("sync under load: %v", err)
				return
			}
			if rep, err := s.Scrub(); err != nil || rep.Unrecovered != 0 {
				fail("scrub under load: %+v %v", rep, err)
				return
			}
			if err := s.CrashSave(seed); err != nil {
				fail("crash save under load: %v", err)
				return
			}
			seed++
		}
	}()

	<-deadline
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	st := s.Stats()
	if st.FastGets == 0 {
		t.Fatalf("torture never used the fast path: %+v", st)
	}
	t.Logf("torture: fast=%d worker=%d fallbacks=%d faults=%d puts=%d batches=%d",
		st.FastGets, st.Gets, st.FastFallbacks, st.FastFaults, st.Puts, st.Batches)

	// The last CrashSave images (or the Sync) must reopen cleanly.
	s.Abandon()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torture: %v", err)
	}
	defer s2.Abandon()
	if rep, err := s2.Scrub(); err != nil || rep.Unrecovered != 0 {
		t.Fatalf("scrub after reopen: %+v %v", rep, err)
	}
	for k := uint64(0); k < keySpace; k++ {
		if v, ok, err := s2.Get(k); err != nil {
			t.Fatalf("get %d after reopen: %v", k, err)
		} else if ok && v&0xFFFFFFFF != k {
			t.Fatalf("key %d torn after recovery: %#x", k, v)
		}
	}
}

package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/server"
)

// obs is what one op observed: a GET's value and presence, a DEL's
// presence.
type obs struct {
	v  uint64
	ok bool
}

// target executes ops at one layer's public entry point.
type target interface {
	do(slot int, o op) (obs, error)
}

// violation is an output the model or the scan contract rules out.
type violation struct{ msg string }

func (v *violation) Error() string { return v.msg }

func violationf(format string, args ...any) error {
	return &violation{msg: fmt.Sprintf(format, args...)}
}

// snapGate holds, per connection, at most server.MaxConnSnapshots
// snapshot scans open at once; further ones wait their turn. Slot i
// belongs to connection i mod conns.
type snapGate []chan struct{}

func newSnapGate(conns int) snapGate {
	g := make(snapGate, conns)
	for i := range g {
		g[i] = make(chan struct{}, server.MaxConnSnapshots)
	}
	return g
}

// hold waits for a snapshot slot of slot's connection and returns its
// release.
func (g snapGate) hold(slot int) func() {
	sem := g[slot%len(g)]
	sem <- struct{}{}
	return func() { <-sem }
}

// clientTarget drives the server through its pipelined clients; slot i
// uses connection i mod conns.
type clientTarget struct {
	clients []*server.Client
	snaps   snapGate
}

func newClientTarget(clients []*server.Client) *clientTarget {
	return &clientTarget{clients: clients, snaps: newSnapGate(len(clients))}
}

func (t *clientTarget) do(slot int, o op) (obs, error) {
	c := t.clients[slot%len(t.clients)]
	switch o.kind {
	case opGet:
		v, ok, err := c.Get(o.k)
		return obs{v: v, ok: ok}, err
	case opPut:
		return obs{ok: true}, c.Put(o.k, o.v)
	case opDel:
		ok, err := c.Del(o.k)
		return obs{ok: ok}, err
	case opScan:
		pairs, _, _, err := c.Scan(o.k, o.hi, scanPairs, 0)
		if err != nil {
			return obs{}, err
		}
		if len(pairs) > scanPairs {
			return obs{}, violationf("scan [%d,%d]: %d pairs over limit %d", o.k, o.hi, len(pairs), scanPairs)
		}
		_, err = checkPage(pairs, o, 0, false)
		return obs{}, err
	case opSnap:
		defer t.snaps.hold(slot)()
		sc := c.SnapScan(o.k, o.hi)
		var last uint64
		seen := false
		for !sc.Done() {
			pairs, err := sc.Next(snapPage)
			if err != nil {
				return obs{}, err
			}
			if last, err = checkPage(pairs, o, last, seen); err != nil {
				return obs{}, err
			}
			seen = seen || len(pairs) > 0
		}
		return obs{}, nil
	}
	return obs{}, fmt.Errorf("unknown op kind %d", o.kind)
}

// checkPage checks one scan page against the scan contract: keys strictly
// ascend (continuing after last when seen), stay within [o.k, o.hi], and
// each value embeds its key. It returns the page's last key.
func checkPage(pairs []server.Pair, o op, last uint64, seen bool) (uint64, error) {
	for _, p := range pairs {
		if p.K < o.k || p.K > o.hi {
			return last, violationf("%s [%d,%d]: key %d out of bounds", o.kind, o.k, o.hi, p.K)
		}
		if seen && p.K <= last {
			return last, violationf("%s [%d,%d]: key %d after %d, not ascending", o.kind, o.k, o.hi, p.K, last)
		}
		if p.V&(1<<keyBits-1) != p.K {
			return last, violationf("%s: key %d holds value %#x of another key", o.kind, p.K, p.V)
		}
		last, seen = p.K, true
	}
	return last, nil
}

// shardTarget drives the shard set directly, point ops through
// Set.Submit* with one completion channel per slot and scans through
// shardScan, at the same in-flight count and snapshot cap as the client
// loop it peels.
type shardTarget struct {
	set   *shard.Set
	done  []chan shard.BatchResult
	cbs   []func(shard.BatchResult)
	snaps snapGate
}

func newShardTarget(set *shard.Set, slots, conns int) *shardTarget {
	t := &shardTarget{set: set, snaps: newSnapGate(conns)}
	for i := 0; i < slots; i++ {
		ch := make(chan shard.BatchResult, 1)
		t.done = append(t.done, ch)
		t.cbs = append(t.cbs, func(r shard.BatchResult) { ch <- r })
	}
	return t
}

func (t *shardTarget) do(slot int, o op) (obs, error) {
	switch o.kind {
	case opGet:
		t.set.SubmitGet(o.k, t.cbs[slot])
	case opPut:
		t.set.SubmitPut(o.k, o.v, t.cbs[slot])
	case opDel:
		t.set.SubmitDel(o.k, t.cbs[slot])
	case opScan:
		return obs{}, shardScan(t.set, o)
	case opSnap:
		defer t.snaps.hold(slot)()
		return obs{}, shardScan(t.set, o)
	default:
		return obs{}, fmt.Errorf("unknown op kind %d", o.kind)
	}
	r := <-t.done[slot]
	return obs{v: r.V, ok: r.OK}, r.Err
}

// model predicts every point op exactly: keys are partitioned so that at
// most one request touches a key at a time, and each request checks its
// observation against, then updates, the key's entry.
type model struct {
	vals []uint64 // by key; 0 = absent (every stored value is nonzero)
}

func (m *model) check(o op, r obs) error {
	want := m.vals[o.k]
	switch o.kind {
	case opGet:
		if r.ok != (want != 0) || (r.ok && r.v != want) {
			return violationf("get %d = (%#x, %v), want (%#x, %v)", o.k, r.v, r.ok, want, want != 0)
		}
	case opPut:
		m.vals[o.k] = o.v
	case opDel:
		if r.ok != (want != 0) {
			return violationf("del %d reported present=%v, want %v", o.k, r.ok, want != 0)
		}
		m.vals[o.k] = 0
	}
	return nil
}

func (m *model) live() int {
	n := 0
	for _, v := range m.vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// tally counts attempted and failed ops and keeps the first failures.
type tally struct {
	attempted, failed atomic.Uint64
	mu                sync.Mutex
	first             []string
}

// add counts one op and its outcome.
func (t *tally) add(o op, err error) {
	if err != nil {
		err = fmt.Errorf("%s %d: %w", o.kind, o.k, err)
	}
	t.count(err)
}

// fail counts a check that is not one client op (set-up, recovery,
// scrub, a replay result) as a failed attempt.
func (t *tally) fail(err error) { t.count(err) }

func (t *tally) count(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 8 {
		t.first = append(t.first, err.Error())
	}
	t.mu.Unlock()
}

// closedLoop runs slots concurrent request streams, each sending its next
// op only when the previous one completes, until dur has passed. On a
// traced run with layer set, every sent op is recorded as a span named
// layer.kind. It returns the ops completed, the elapsed time and the
// throughput of each whole window.
func (b *bench) closedLoop(t target, stream string, dur time.Duration, layer string) (uint64, time.Duration, []float64) {
	slots := b.w.slots()
	counts := make([]uint64, slots)
	nwin := max(1, int(dur/window))
	wins := make([][]uint64, slots) // per slot, ops completed in each whole window
	parent, endPhase := b.tr.phase("closed." + stream)
	defer endPhase()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := newGen(&b.w, b.seed, stream, s, false)
			wins[s] = make([]uint64, nwin)
			var buf *buffer
			if b.tr != nil && layer != "" {
				buf = &buffer{parent: parent}
				defer b.tr.merge(buf)
			}
			for i := uint64(0); ; i++ {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				o := g.next(s, slots)
				r, err := t.do(s, o)
				if err == nil {
					err = b.model.check(o, r)
				}
				b.tally.add(o, err)
				counts[s]++
				if w := int(t0.Sub(start) / window); w < nwin {
					wins[s][w]++
				}
				if buf != nil {
					buf.add(layer+"."+o.kind.String(), uint64(s)<<40|i, b.tr.since(t0), b.tr.since(time.Now()))
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	rates := make([]float64, nwin)
	for _, sw := range wins {
		for w, c := range sw {
			rates[w] += float64(c) / window.Seconds()
		}
	}
	return total, elapsed, rates
}

// window is the length of the closed loop's throughput windows; a run
// reports the median window, so a short stall in one does not move it.
const window = time.Second

// openResult holds one open-loop phase's samples, in microseconds.
type openResult struct {
	lat  [numKinds][]float64 // completion minus due time, per kind
	late []float64           // issue minus due time
}

// maxInflight bounds the open loop's outstanding requests. It is far
// above the offered rate times the expected latency; reaching it stalls
// the generator, which then shows as lateness.
const maxInflight = 512

// openLoop offers ops at a fixed rate for dur, each sent at its due time
// whether or not earlier ones completed, and times each from its due time.
// Point ops take a partition no outstanding request holds, so the model
// stays exact while requests overlap.
func (b *bench) openLoop(t target, dur time.Duration, rate float64) openResult {
	_, endPhase := b.tr.phase("open")
	defer endPhase()
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	g := newGen(&b.w, b.seed, "open", 0, false)
	var busy [partitions]atomic.Bool
	next := 0
	kinds := make([]opKind, n)
	lat := make([]float64, n)
	late := make([]float64, n)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		sem <- struct{}{}
		kind := g.kind()
		class := 0
		if kind.point() {
			for busy[next].Load() {
				next = (next + 1) % partitions
			}
			class = next
			busy[class].Store(true)
			next = (next + 1) % partitions
		}
		o := g.opFor(kind, class, partitions)
		kinds[i] = kind
		late[i] = micros(time.Since(due))
		wg.Add(1)
		go func(i int, o op, due time.Time) {
			defer wg.Done()
			r, err := t.do(i, o)
			lat[i] = micros(time.Since(due))
			if err == nil {
				err = b.model.check(o, r)
			}
			b.tally.add(o, err)
			if o.kind.point() {
				busy[o.k%partitions].Store(false)
			}
			<-sem
		}(i, o, due)
	}
	wg.Wait()
	res := openResult{late: late}
	for i, k := range kinds {
		res.lat[k] = append(res.lat[k], lat[i])
	}
	return res
}

// sleepSlack is how far ahead of a due time the generator stops sleeping.
// Go timers wake with about a millisecond's resolution on Linux, so the
// generator sleeps with nanosleep, whose overshoot is the kernel's timer
// slack (50µs by default), and busy-waits the last stretch. Yielding in
// that stretch instead would keep the scheduler from polling the network.
const sleepSlack = 60 * time.Microsecond

// waitUntil returns at t or as soon after it as the kernel allows.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > sleepSlack {
		ts := syscall.NsecToTimespec(int64(d - sleepSlack))
		syscall.Nanosleep(&ts, nil) // an early wake-up is caught by the loop below
	}
	for time.Now().Before(t) {
	}
}

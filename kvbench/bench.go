package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/server"
)

// bench is one run of one workload.
type bench struct {
	w      workload
	seed   int64
	secs   float64
	dir    string  // scratch directory for the set's files, removed at exit
	tr     *tracer // nil on untraced runs
	model  model
	tally  tally
	report *report
	start  time.Time
	// heapPeak is the largest live heap seen by collect.
	heapPeak uint64
}

// collect runs a garbage collection, so the timed phase that follows
// starts from the same heap on every run, and records the live heap. The
// peak over these phase boundaries is the run's memory figure: unlike a
// sampled peak it does not depend on when collections happen to run.
func (b *bench) collect() {
	runtime.GC()
	b.heapPeak = max(b.heapPeak, liveHeap())
}

// live is a created set with its in-process server and clients.
type live struct {
	set     *shard.Set
	srv     *server.Server
	served  chan error
	clients []*server.Client
}

// options configures every set the run creates or opens: the background
// scrubber stays off.
func (b *bench) options() shard.Options {
	return shard.Options{
		Structure: b.w.structure,
		Mode:      mode,            // selects the pools' mode by name
		Pangolin:  b.poolConfig(0), // so the numeric mode here is unused
	}
}

// serve starts an in-process server on loopback for set and dials the
// workload's connections.
func (b *bench) serve(set *shard.Set) (*live, error) {
	l := &live{set: set, srv: server.New(set), served: make(chan error, 1)}
	if err := l.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { l.served <- l.srv.Serve() }()
	for i := 0; i < b.w.conns; i++ {
		c, err := server.Dial(context.Background(), l.srv.Addr().String(), server.WithPipelineDepth(b.w.depth))
		if err != nil {
			l.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		l.clients = append(l.clients, c)
	}
	return l, nil
}

// stop closes the clients and the server and waits for Serve to return;
// the set stays open.
func (l *live) stop() {
	for _, c := range l.clients {
		c.Close()
	}
	l.srv.Shutdown()
	<-l.served
}

// setup creates the set in dir and preloads every key through MPUT.
func (b *bench) setup(dir string) (*live, error) {
	set, err := shard.Create(dir, shards, b.options())
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	l, err := b.serve(set)
	if err != nil {
		set.Abandon()
		return nil, err
	}
	// One connection, keys in ascending order: every run builds the same
	// structure, so runs differ only in what they measure.
	c := l.clients[0]
	keys := make([]uint64, 0, preloadBatch)
	vals := make([]uint64, 0, preloadBatch)
	for lo := 0; lo < b.w.keys; lo += preloadBatch {
		keys, vals = keys[:0], vals[:0]
		for k := uint64(lo); k < uint64(min(lo+preloadBatch, b.w.keys)); k++ {
			keys = append(keys, k)
			vals = append(vals, preloadValue(k))
		}
		if err := c.MPut(keys, vals); err != nil {
			l.stop()
			set.Abandon()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return l, nil
}

// setupTimed sets up setupReps sets, keeps the last and returns the
// median set-up time.
func (b *bench) setupTimed(reps int) (*live, float64, error) {
	var times []float64
	var l *live
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("set-%d", rep))
		b.collect()
		t0 := time.Now()
		var err error
		if l, err = b.setup(dir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < reps-1 {
			l.stop()
			l.set.Abandon()
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
	}
	b.model.vals = make([]uint64, b.w.keys)
	for k := range b.model.vals {
		b.model.vals[k] = preloadValue(uint64(k))
	}
	return l, median(times), nil
}

// crashRecover writes crash images of the live set, abandons it, reopens
// the crash images reps times and returns the median reopen time and the
// last reopened set.
func (b *bench) crashRecover(l *live, reps int) (*shard.Set, float64, error) {
	if err := l.set.CrashSave(b.seed); err != nil {
		return nil, 0, fmt.Errorf("crash save: %w", err)
	}
	l.stop()
	l.set.Abandon()
	var times []float64
	for rep := 0; ; rep++ {
		b.collect()
		t0 := time.Now()
		set, err := shard.Open(l.set.Dir(), b.options())
		if err != nil {
			return nil, 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == reps-1 {
			b.collect()
			return set, median(times), nil
		}
		set.Abandon()
	}
}

// verify checks the recovered set: every acknowledged write is readable
// with its value, every deleted key is absent, and a full scrub leaves
// nothing unrecovered.
func (b *bench) verify(set *shard.Set) {
	for k, want := range b.model.vals {
		v, ok, err := set.Get(uint64(k))
		if err == nil && (ok != (want != 0) || v != want) {
			err = violationf("after recovery get %d = (%#x, %v), want (%#x, %v)", k, v, ok, want, want != 0)
		}
		if err != nil {
			b.tally.fail(err)
		}
	}
	rep, err := set.Scrub()
	if err == nil && (rep.Unrecovered != 0 || rep.PagesUnrecovered != 0) {
		err = violationf("scrub after recovery: %d objects and %d pages unrecovered", rep.Unrecovered, rep.PagesUnrecovered)
	}
	if err != nil {
		b.tally.fail(err)
	}
}

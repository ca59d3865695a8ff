package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded by
// the benchmark around the call. Spans of the same generated op share an
// opID across layers (a replay re-issues the op with its id), so a
// layer's self time is comparable op for op.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing phase span; -1 for a phase
	opID       uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory; they are written out once, at exit,
// so recording costs one append per call on the traced path. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// phase opens a phase span and returns its index and a closer.
func (t *tracer) phase(name string) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: t.since(time.Now()), parent: -1})
	t.mu.Unlock()
	return idx, func() {
		t.mu.Lock()
		t.spans[idx].end = t.since(time.Now())
		t.mu.Unlock()
	}
}

// buffer is one goroutine's span list, merged into the tracer when the
// goroutine finishes so the traced path takes no lock.
type buffer struct {
	parent int
	spans  []span
}

func (b *buffer) add(name string, opID uint64, start, end time.Duration) {
	b.spans = append(b.spans, span{name: name, start: start, end: end, parent: b.parent, opID: opID})
}

func (t *tracer) merge(b *buffer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, b.spans...)
	t.mu.Unlock()
}

// write stores every span, gzip-compressed, as one JSON object per line:
// name, start and end in nanoseconds since the run began, parent span
// index and op id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			OpID   uint64 `json:"op"`
		}{s.name, int64(s.start), int64(s.end), s.parent, s.opID}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

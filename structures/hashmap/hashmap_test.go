package hashmap

import (
	"testing"
	"unsafe"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kvtest"
)

func TestEntrySizeMatchesPaper(t *testing.T) {
	// Table 3: hashmap entry size 40 B.
	if s := unsafe.Sizeof(entry{}); s != 40 {
		t.Fatalf("entry size %d, want 40", s)
	}
}

func TestConformance(t *testing.T) {
	kvtest.RunAll(t, kvtest.Harness{
		Make: func(p *pangolin.Pool) (kv.Map, error) { return New(p) },
		Attach: func(p *pangolin.Pool, a pangolin.OID) (kv.Map, error) {
			return Attach(p, a)
		},
	})
}

// TestGrowth pushes past the load factor so the table rehashes (alloc new
// table, relink all entries, free old) and verifies every key survives.
func TestGrowth(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = InitialBuckets*2 + 500 // crosses the growth threshold
	for k := uint64(0); k < n; k++ {
		if err := m.Insert(k, k^0xA5A5); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	// Table grew.
	a, err := pangolin.GetFromPool[anchor](p, m.anchor)
	if err != nil {
		t.Fatal(err)
	}
	table, err := p.Get(a.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(len(table)); got <= tableHeaderSize+InitialBuckets*bucketSize {
		t.Fatalf("table did not grow: %d bytes", got)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil || !ok || v != k^0xA5A5 {
			t.Fatalf("lookup %d after growth: (%d,%v,%v)", k, v, ok, err)
		}
	}
	if cnt, _ := m.Len(); cnt != n {
		t.Fatalf("len %d, want %d", cnt, n)
	}
}

// TestCollisions forces all keys into one bucket path by construction:
// keys that differ only above the bucket-index bits share chains.
func TestCollisions(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Just hammer a small keyspace with updates and removals; chain
	// handling shows up regardless of hash spread.
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 64; k++ {
			if err := m.Insert(k, uint64(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := uint64(0); k < 64; k++ {
		v, ok, _ := m.Lookup(k)
		if !ok || v != 2 {
			t.Fatalf("key %d = (%d,%v)", k, v, ok)
		}
	}
	for k := uint64(0); k < 64; k += 2 {
		if ok, err := m.Remove(k); err != nil || !ok {
			t.Fatalf("remove %d: %v %v", k, ok, err)
		}
	}
	for k := uint64(0); k < 64; k++ {
		_, ok, _ := m.Lookup(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("key %d present=%v", k, ok)
		}
	}
}

func TestRangeUnordered(t *testing.T) {
	kvtest.RunRange(t, kvtest.Harness{
		Make: func(p *pangolin.Pool) (kv.Map, error) { return New(p) },
		Attach: func(p *pangolin.Pool, a pangolin.OID) (kv.Map, error) {
			return Attach(p, a)
		},
	}, false)
}

// TestScribbledBucketCountIsCorruption: the table exceeds the read
// view's verify limit, so a scribbled bucket count is caught by the
// count check on every path that reads it — typed corruption, never an
// out-of-range bucket index.
func TestScribbledBucketCountIsCorruption(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	a, err := pangolin.GetFromPool[anchor](p, m.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	p.Device().WriteAt(a.Table.Off, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	view, err := Attach(p.ReadView(), m.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Map{"owner": m, "view": view} {
		if _, _, err := m.Lookup(3); !pangolin.IsCorruption(err) {
			t.Errorf("%s Lookup = %v, want a CorruptionError", name, err)
		}
		if err := m.Scan(0, 10, func(k, v uint64) bool { return true }); !pangolin.IsCorruption(err) {
			t.Errorf("%s Scan = %v, want a CorruptionError", name, err)
		}
	}
	for name, fn := range map[string]func(tx *pangolin.Tx) error{
		"LookupTx": func(tx *pangolin.Tx) error { _, _, err := m.LookupTx(tx, 3); return err },
		"InsertTx": func(tx *pangolin.Tx) error { return m.InsertTx(tx, 100, 1) },
		"RemoveTx": func(tx *pangolin.Tx) error { _, err := m.RemoveTx(tx, 3); return err },
	} {
		if err := p.Run(fn); !pangolin.IsCorruption(err) {
			t.Errorf("%s = %v, want a CorruptionError", name, err)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// allocFilled allocates n objects of size user bytes, batch per
// transaction, filling object i with byte(i).
func allocFilled(tb testing.TB, e *Engine, n, size, batch int) []layout.OID {
	tb.Helper()
	oids := make([]layout.OID, 0, n)
	for len(oids) < n {
		if err := e.Run(func(tx *Tx) error {
			for j := 0; j < batch && len(oids) < n; j++ {
				oid, data, err := tx.Alloc(uint64(size), 1)
				if err != nil {
					return err
				}
				for k := range data {
					data[k] = byte(len(oids))
				}
				oids = append(oids, oid)
			}
			return nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return oids
}

// assertStoredChecksums checks that every live object's stored checksum
// equals a full recompute over its NVMM image.
func assertStoredChecksums(t *testing.T, e *Engine) {
	t.Helper()
	n := 0
	e.heap.Objects(func(o alloc.ObjectInfo) bool {
		hdr := layout.DecodeObjHeader(e.dev.Slice(o.Base, layout.ObjHeaderSize))
		if got := layout.ObjChecksum(e.dev.Slice(o.Base, hdr.Size)); got != hdr.Csum {
			t.Fatalf("object %#x: stored checksum %#x, recomputed %#x", o.Base, hdr.Csum, got)
		}
		n++
		return true
	})
	if n == 0 {
		t.Fatal("no live objects")
	}
}

// One transaction modifies thousands of existing objects, with each
// object's ranges declared far apart in program order (every object's
// first range, then every object's second range), and also allocates and
// frees. Each object's checksum must be refreshed from exactly its own
// ranges.
func TestWideTransactionChecksums(t *testing.T) {
	const n, size = 2048, 48
	e := mkEngine(t, PangolinMLPC)
	oids := allocFilled(t, e, n, size, 256)
	offs := []uint64{0, 16, 40} // non-adjacent: three ranges per object
	var fresh []layout.OID
	freed := oids[n/2]
	if err := e.Run(func(tx *Tx) error {
		for r, off := range offs {
			for i, oid := range oids {
				data, err := tx.AddRange(oid, off, 4)
				if err != nil {
					return err
				}
				for k := range 4 {
					data[off+uint64(k)] = byte(i*7 + r*3 + k)
				}
			}
		}
		for range 4 {
			oid, data, err := tx.Alloc(size, 2)
			if err != nil {
				return err
			}
			copy(data, "fresh")
			fresh = append(fresh, oid)
		}
		return tx.Free(freed)
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := e.heap.CountLive(), n-1+len(fresh); got != want {
		t.Fatalf("live objects %d, want %d", got, want)
	}
	for i, oid := range oids {
		if oid == freed {
			continue
		}
		got, err := e.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		for r, off := range offs {
			for k := range 4 {
				if want := byte(i*7 + r*3 + k); got[off+uint64(k)] != want {
					t.Fatalf("object %d byte %d = %d, want %d", i, off+uint64(k), got[off+uint64(k)], want)
				}
			}
		}
		if got[8] != byte(i) {
			t.Fatalf("object %d: unmodified byte 8 = %d, want %d", i, got[8], byte(i))
		}
	}
	assertStoredChecksums(t, e)
	verifyParity(t, e)

	e = reopenEngine(t, e, true, 1)
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadObjects != 0 || rep.Unrecovered != 0 || rep.Objects != n-1+len(fresh) {
		t.Fatalf("scrub after crash reopen: %+v", rep)
	}
	assertPoolInvariants(t, e)
}

// A transactional open of a large scribbled object repairs it and reads
// it once into the micro-buffer: the buffer holds the repaired bytes, and
// the verified-bytes count charges the object exactly once.
func TestOpenRepairsLargeObjectInPlace(t *testing.T) {
	const size = 64 << 10
	e := mkEngine(t, PangolinMLPC)
	oid := allocFilled(t, e, 1, size, 1)[0]
	e.InjectScribble(oid.Off+size/2, 64, 5)
	before, repaired := e.stats.VerifiedBytes.Load(), e.stats.Recovered.Load()
	if err := e.Run(func(tx *Tx) error {
		data, err := tx.AddRange(oid, size/2, 8)
		if err != nil {
			return err
		}
		for k, c := range data {
			if c != 0 {
				return fmt.Errorf("micro-buffer byte %d = %d after repair, want 0", k, c)
			}
		}
		data[size/2] = 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e.stats.Recovered.Load() == repaired {
		t.Fatal("open did not repair the scribbled pages")
	}
	if got := e.stats.VerifiedBytes.Load() - before; got != size {
		t.Fatalf("verified %d bytes for one %d-byte object", got, size)
	}
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got[size/2] != 1 || got[size/2+1] != 0 {
		t.Fatalf("committed bytes %v", got[size/2:size/2+2])
	}
	assertStoredChecksums(t, e)
	verifyParity(t, e)
}

// BenchmarkCommitWideTx times one transaction that modifies 8 bytes in
// each of N existing objects, per object. Checksum refresh is linear in
// the write set, so ns/object should stay flat as N grows.
func BenchmarkCommitWideTx(b *testing.B) {
	for _, n := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("objs=%d", n), func(b *testing.B) {
			geo := layout.Paper(1)
			e, err := Create(nvm.New(geo.PoolSize(), nvm.Options{}), geo, Options{Mode: PangolinMLPC})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			oids := allocFilled(b, e, n, 48, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Run(func(tx *Tx) error {
					for _, oid := range oids {
						data, err := tx.AddRange(oid, 8, 8)
						if err != nil {
							return err
						}
						data[8] = byte(i)
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/obj")
		})
	}
}

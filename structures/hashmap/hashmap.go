// Package hashmap implements a persistent chained hash table over uint64
// keys, one of the six PMDK data-structure benchmarks (§4.5). It has two
// object kinds, like the paper's hashmap (Table 3): a large bucket-array
// table object (10 MB at paper scale; smaller here and grown by
// rehashing) and 40-byte chain entries.
//
// Bucket-pointer updates modify 16 bytes of the multi-kilobyte table
// object via AddRange — the workload where Pangolin's incremental
// checksums and range-limited logging matter most (§3.5).
package hashmap

import (
	"encoding/binary"

	"github.com/pangolin-go/pangolin"
)

const (
	typeTable = 0x68 // 'h'
	typeEntry = 0x65 // 'e'
)

// entry is the persistent chain node: 40 bytes (Table 3).
type entry struct {
	Next  pangolin.OID
	Key   uint64
	Value uint64
	_     uint64
}

// tableHeader precedes the bucket array inside the table object.
type tableHeader struct {
	NBuckets uint64
	_        uint64
}

const tableHeaderSize = 16
const bucketSize = 16 // one OID

type anchor struct {
	Table pangolin.OID
	Count uint64
}

// Map is a handle to a persistent hash map.
type Map struct {
	p      *pangolin.Pool
	anchor pangolin.OID
}

// InitialBuckets is the bucket count of a fresh table. The paper's table
// object is 10 MB; the default here is laptop-scale and grows by
// rehashing at load factor 2.
const InitialBuckets = 1024

// New allocates a fresh map with InitialBuckets buckets.
func New(p *pangolin.Pool) (*Map, error) { return NewWithBuckets(p, InitialBuckets) }

// NewWithBuckets allocates a fresh map with a chosen initial bucket count
// (benchmarks pre-size the table the way the paper's 10 MB table does, so
// the insert path is not dominated by rehashing).
func NewWithBuckets(p *pangolin.Pool, buckets uint64) (*Map, error) {
	var aOID pangolin.OID
	err := p.Run(func(tx *pangolin.Tx) error {
		var err error
		var a *anchor
		aOID, a, err = pangolin.Alloc[anchor](tx, typeTable)
		if err != nil {
			return err
		}
		tOID, err := allocTable(tx, buckets)
		if err != nil {
			return err
		}
		a.Table = tOID
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Map{p: p, anchor: aOID}, nil
}

func allocTable(tx *pangolin.Tx, buckets uint64) (pangolin.OID, error) {
	size := tableHeaderSize + buckets*bucketSize
	oid, data, err := tx.Alloc(size, typeTable)
	if err != nil {
		return pangolin.NilOID, err
	}
	binary.LittleEndian.PutUint64(data[0:], buckets)
	return oid, nil
}

// Attach reconnects to an existing map.
func Attach(p *pangolin.Pool, anchorOID pangolin.OID) (*Map, error) {
	if _, err := p.ObjectSize(anchorOID); err != nil {
		return nil, err
	}
	return &Map{p: p, anchor: anchorOID}, nil
}

// Anchor returns the map's persistent anchor OID.
func (m *Map) Anchor() pangolin.OID { return m.anchor }

// Len returns the number of keys.
func (m *Map) Len() (uint64, error) {
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// hash is Fibonacci hashing over the key.
func hash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// readTable reads the table object through get (a pool's or a
// transaction's) and returns it with its bucket count. The count is
// checked against the table's length: the table is larger than the read
// view's verify limit, so a scribbled count must surface as corruption
// here rather than index past the bucket array.
func readTable(get func(pangolin.OID) ([]byte, error), oid pangolin.OID) ([]byte, uint64, error) {
	table, err := get(oid)
	if err != nil {
		return nil, 0, err
	}
	if len(table) >= tableHeaderSize {
		n := binary.LittleEndian.Uint64(table[0:])
		if n > 0 && n <= uint64(len(table)-tableHeaderSize)/bucketSize {
			return table, n, nil
		}
	}
	return nil, 0, &pangolin.CorruptionError{OID: oid, Reason: "hashmap: bucket count does not fit the table"}
}

// bucketOID reads bucket i of a table image.
func bucketOID(table []byte, i uint64) pangolin.OID {
	off := tableHeaderSize + i*bucketSize
	return pangolin.OID{
		Pool: binary.LittleEndian.Uint64(table[off:]),
		Off:  binary.LittleEndian.Uint64(table[off+8:]),
	}
}

func putBucketOID(table []byte, i uint64, oid pangolin.OID) {
	off := tableHeaderSize + i*bucketSize
	binary.LittleEndian.PutUint64(table[off:], oid.Pool)
	binary.LittleEndian.PutUint64(table[off+8:], oid.Off)
}

// Lookup finds k with direct reads. It is a pure read (no pool writes,
// no handle state), honoring the kv.Map concurrent-read contract: on a
// ReadView instance it may run concurrently with other Lookups, gated
// against commits by the caller.
func (m *Map) Lookup(k uint64) (uint64, bool, error) {
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		return 0, false, err
	}
	table, n, err := readTable(m.p.Get, a.Table)
	if err != nil {
		return 0, false, err
	}
	cur := bucketOID(table, hash(k)%n)
	for !cur.IsNil() {
		e, err := pangolin.GetFromPool[entry](m.p, cur)
		if err != nil {
			return 0, false, err
		}
		if e.Key == k {
			return e.Value, true, nil
		}
		cur = e.Next
	}
	return 0, false, nil
}

// LookupTx is Lookup inside the caller's transaction: the table and chain
// reads come from the transaction's micro-buffers when open, so the
// caller's own uncommitted inserts and removes are visible.
func (m *Map) LookupTx(tx *pangolin.Tx, k uint64) (uint64, bool, error) {
	a, err := pangolin.Get[anchor](tx, m.anchor)
	if err != nil {
		return 0, false, err
	}
	table, n, err := readTable(tx.Get, a.Table)
	if err != nil {
		return 0, false, err
	}
	cur := bucketOID(table, hash(k)%n)
	for !cur.IsNil() {
		e, err := pangolin.Get[entry](tx, cur)
		if err != nil {
			return 0, false, err
		}
		if e.Key == k {
			return e.Value, true, nil
		}
		cur = e.Next
	}
	return 0, false, nil
}

// Insert adds or updates k in one transaction, growing the table at load
// factor 2.
func (m *Map) Insert(k, v uint64) error {
	return m.p.Run(func(tx *pangolin.Tx) error { return m.InsertTx(tx, k, v) })
}

// InsertTx adds or updates k inside the caller's transaction.
func (m *Map) InsertTx(tx *pangolin.Tx, k, v uint64) error {
	a, err := pangolin.Open[anchor](tx, m.anchor)
	if err != nil {
		return err
	}
	table, n, err := readTable(tx.Get, a.Table)
	if err != nil {
		return err
	}
	idx := hash(k) % n
	// Chain scan.
	cur := bucketOID(table, idx)
	for !cur.IsNil() {
		e, err := pangolin.Get[entry](tx, cur)
		if err != nil {
			return err
		}
		if e.Key == k {
			we, err := pangolin.Open[entry](tx, cur)
			if err != nil {
				return err
			}
			we.Value = v
			return nil
		}
		cur = e.Next
	}
	// New entry at the chain head; only 16 bytes of the table
	// object are declared modified.
	eOID, e, err := pangolin.Alloc[entry](tx, typeEntry)
	if err != nil {
		return err
	}
	e.Key, e.Value = k, v
	e.Next = bucketOID(table, idx)
	wTable, err := tx.AddRange(a.Table, tableHeaderSize+idx*bucketSize, bucketSize)
	if err != nil {
		return err
	}
	putBucketOID(wTable, idx, eOID)
	a.Count++
	if a.Count > 2*n {
		return m.grow(tx, a, n, n*2)
	}
	return nil
}

// grow rehashes the table's oldN buckets into a table of newBuckets
// buckets within the caller's transaction: allocate, relink every entry,
// free the old table.
func (m *Map) grow(tx *pangolin.Tx, a *anchor, oldN, newBuckets uint64) error {
	oldTable, err := tx.Get(a.Table)
	if err != nil {
		return err
	}
	newOID, err := allocTable(tx, newBuckets)
	if err != nil {
		return err
	}
	newTable, err := tx.AddRange(newOID, 0, tableHeaderSize+newBuckets*bucketSize)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(newTable[0:], newBuckets)
	for i := uint64(0); i < oldN; i++ {
		cur := bucketOID(oldTable, i)
		for !cur.IsNil() {
			e, err := pangolin.Open[entry](tx, cur)
			if err != nil {
				return err
			}
			next := e.Next
			idx := hash(e.Key) % newBuckets
			e.Next = bucketOID(newTable, idx)
			putBucketOID(newTable, idx, cur)
			cur = next
		}
	}
	old := a.Table
	a.Table = newOID
	return tx.Free(old)
}

// Remove deletes k, reporting whether it was present.
func (m *Map) Remove(k uint64) (bool, error) {
	found := false
	err := m.p.Run(func(tx *pangolin.Tx) error {
		var err error
		found, err = m.RemoveTx(tx, k)
		return err
	})
	return found, err
}

// RemoveTx deletes k inside the caller's transaction.
func (m *Map) RemoveTx(tx *pangolin.Tx, k uint64) (bool, error) {
	a, err := pangolin.Open[anchor](tx, m.anchor)
	if err != nil {
		return false, err
	}
	table, n, err := readTable(tx.Get, a.Table)
	if err != nil {
		return false, err
	}
	idx := hash(k) % n
	prev := pangolin.NilOID
	cur := bucketOID(table, idx)
	for !cur.IsNil() {
		e, err := pangolin.Get[entry](tx, cur)
		if err != nil {
			return false, err
		}
		if e.Key == k {
			next := e.Next
			if prev.IsNil() {
				wTable, err := tx.AddRange(a.Table, tableHeaderSize+idx*bucketSize, bucketSize)
				if err != nil {
					return false, err
				}
				putBucketOID(wTable, idx, next)
			} else {
				wp, err := pangolin.Open[entry](tx, prev)
				if err != nil {
					return false, err
				}
				wp.Next = next
			}
			a.Count--
			return true, tx.Free(cur)
		}
		prev, cur = cur, e.Next
	}
	return false, nil
}

// Range calls fn for every key/value pair in unspecified order, stopping
// early if fn returns false. Reads are direct (pgl_get); do not mutate
// the map during iteration.
func (m *Map) Range(fn func(k, v uint64) bool) error {
	return m.Scan(0, ^uint64(0), fn)
}

// Scan calls fn for every pair with lo <= k <= hi in unspecified order
// (hash order gives no cheaper option than enumerating every chain and
// filtering), stopping early if fn returns false. It is complete: every
// in-range pair is visited unless fn stops early. It follows the kv.Map
// iteration contract: a mid-scan read fault aborts the walk and returns
// its error.
func (m *Map) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	if lo > hi {
		return nil
	}
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		return err
	}
	table, n, err := readTable(m.p.Get, a.Table)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		cur := bucketOID(table, i)
		for !cur.IsNil() {
			e, err := pangolin.GetFromPool[entry](m.p, cur)
			if err != nil {
				return err
			}
			if e.Key >= lo && e.Key <= hi {
				if !fn(e.Key, e.Value) {
					return nil
				}
			}
			cur = e.Next
		}
	}
	return nil
}

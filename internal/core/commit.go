package core

import (
	"encoding/binary"
	"fmt"

	"github.com/pangolin-go/pangolin/internal/alloc"
	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
	"github.com/pangolin-go/pangolin/internal/xor"
)

// applyRange is one committed byte-range update: new bytes from the
// micro-buffer and the matching old NVMM bytes (for parity deltas and
// incremental checksums).
type applyRange struct {
	off uint64
	new []byte
	old []byte
}

// Commit makes the transaction durable and applies it. For Pangolin modes
// this is the paper's protocol (§3.4): verify canaries, refresh checksums
// incrementally, persist + replicate the redo log, set the commit flag
// (durability point), write back objects with non-temporal stores, fold
// old⊕new deltas into zone parity, apply allocator metadata ops, then
// garbage-collect the log and micro-buffers. For pmemobj modes it
// persists the in-place writes, mirrors them to the replica (Pmemobj-R),
// flips the lane from undo to committed, and applies metadata ops.
func (tx *Tx) Commit() error {
	if err := tx.checkActive(); err != nil {
		return err
	}
	tx.done = true
	e := tx.e
	var err error
	if e.mode.MicroBuffered() {
		err = tx.commitPangolin()
	} else {
		err = tx.commitPmemobj()
	}
	if err == nil {
		e.stats.Commits.Add(1)
		e.stats.TxCount.Add(1)
		e.stats.TxAllocBytes.Add(tx.statAllocBytes)
		e.stats.TxModBytes.Add(tx.statModBytes)
		e.stats.TxFreeBytes.Add(tx.statFreeBytes)
		e.stats.TxAllocObjs.Add(uint64(len(tx.allocs)))
		e.stats.TxObjects.Add(uint64(len(tx.statObjs)))
		e.maybeScrub()
	}
	return err
}

func (tx *Tx) commitPangolin() error {
	e := tx.e
	defer func() {
		e.stats.mbufAdd(-int64(tx.bufs.Bytes()))
	}()

	// Canary check before anything can reach NVMM (§3.2). A clobbered
	// canary aborts the transaction rather than propagating corruption.
	for _, b := range tx.bufs.All() {
		if err := b.CheckCanaries(); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	work := tx.gatherWork()
	if len(work) == 0 && len(tx.allocs) == 0 && len(tx.frees) == 0 && tx.root == nil {
		tx.w.Clear()
		e.stats.EmptyTxs.Add(1)
		return nil
	}

	// Read the old NVMM bytes for every modified range: the inputs to
	// incremental checksums and parity deltas. This happens before the
	// commit point, so media faults here still recover online.
	ranges, err := tx.collectRanges(work)
	if err != nil {
		tx.abortReleasing()
		return err
	}
	if e.mode.Checksums() {
		if err := tx.refreshChecksums(work, &ranges); err != nil {
			tx.abortReleasing()
			return err
		}
	}

	// Enter the commit section: recovery freezes commits here.
	e.waitUnfrozen()
	e.commitGate.RLock()
	defer e.commitGate.RUnlock()

	// Log: data records, allocator ops, root update; then the commit
	// flag — the durability point.
	maxP := e.lm.MaxPayload() - 8
	for _, r := range ranges {
		off, data := r.off, r.new
		for len(data) > 0 {
			n := min(uint64(len(data)), maxP)
			payload := make([]byte, 8+n)
			binary.LittleEndian.PutUint64(payload, off)
			copy(payload[8:], data[:n])
			if err := tx.w.Append(recData, payload); err != nil {
				tx.abortReleasing()
				return err
			}
			e.stats.LoggedBytes.Add(8 + n)
			off += n
			data = data[n:]
		}
	}
	for _, res := range tx.allocs {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(res.Op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	for _, op := range tx.frees {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	if tx.root != nil {
		var p [24]byte
		binary.LittleEndian.PutUint64(p[0:], tx.root.oid.Pool)
		binary.LittleEndian.PutUint64(p[8:], tx.root.oid.Off)
		binary.LittleEndian.PutUint64(p[16:], tx.root.size)
		if err := tx.w.Append(recRoot, p[:]); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	tx.w.Commit()

	// Apply: object write-back with NT stores, one fence, then parity.
	for _, r := range ranges {
		e.dev.WriteNT(r.off, r.new)
	}
	e.dev.Fence()
	if e.mode.Parity() {
		for _, r := range ranges {
			delta := make([]byte, len(r.new))
			xor.Delta(delta, r.old, r.new)
			e.updateParitySegments(r.off, delta)
		}
		e.dev.Fence()
	}
	// Allocator metadata (CM entries are parity-covered).
	for _, res := range tx.allocs {
		if err := e.applyAllocOp(res.Op); err != nil {
			return fmt.Errorf("core: applying alloc op: %w (%w)", err, ErrNeedReopen)
		}
	}
	for _, op := range tx.frees {
		if err := e.applyAllocOp(op); err != nil {
			return fmt.Errorf("core: applying free op: %w (%w)", err, ErrNeedReopen)
		}
	}
	if tx.root != nil {
		e.applyRoot(tx.root.oid, tx.root.size)
	}
	tx.releaseLate()
	tx.w.Clear()
	return nil
}

// gatherWork returns the micro-buffers with changes to persist.
func (tx *Tx) gatherWork() []*mbuf.Buf {
	var work []*mbuf.Buf
	for _, b := range tx.bufs.All() {
		if b.Flags&mbuf.FlagFreed != 0 {
			continue
		}
		if b.Modified() {
			work = append(work, b)
		}
	}
	return work
}

// collectRanges materializes every modified range with its old NVMM bytes.
// It emits one applyRange per mbuf range, buffer by buffer in work order,
// so each buffer's ranges form one contiguous run of the result, of
// length len(b.Ranges()); refreshChecksums relies on that.
func (tx *Tx) collectRanges(work []*mbuf.Buf) ([]applyRange, error) {
	e := tx.e
	var out []applyRange
	for _, b := range work {
		base := b.OID.HeaderOff()
		img := b.Image()
		fresh := b.Flags&mbuf.FlagAllocated != 0
		for _, r := range b.Ranges() {
			ar := applyRange{
				off: base + r.Off,
				new: img[r.Off : r.Off+r.Len],
				old: make([]byte, r.Len),
			}
			if fresh {
				// Newly allocated slots hold arbitrary prior bytes;
				// read them for the parity delta (no recovery needed:
				// freshly reserved space is not user data). A media
				// fault here is repaired like any other.
				if err := e.dev.ReadAt(ar.old, ar.off); err != nil {
					if rerr := e.faultRepair(ar.off, r.Len, err); rerr != nil {
						return nil, rerr
					}
					if err := e.dev.ReadAt(ar.old, ar.off); err != nil {
						return nil, err
					}
				}
			} else {
				if err := e.dev.ReadAt(ar.old, ar.off); err != nil {
					if rerr := e.faultRepair(ar.off, r.Len, err); rerr != nil {
						return nil, rerr
					}
					if err := e.dev.ReadAt(ar.old, ar.off); err != nil {
						return nil, err
					}
				}
			}
			out = append(out, ar)
		}
	}
	return out, nil
}

// refreshChecksums updates each modified buffer's stored checksum
// incrementally from its modified ranges (§3.5: cost proportional to the
// modified size, not the object size), then adds the checksum field itself
// as a modified range. Each buffer folds only its own run of ranges (see
// collectRanges), so the whole refresh is O(ranges + buffers) — not
// O(buffers × ranges), which a commit re-linking thousands of objects
// would pay quadratically.
func (tx *Tx) refreshChecksums(work []*mbuf.Buf, ranges *[]applyRange) error {
	rest := *ranges // data ranges only: the appends below land past its length
	for _, b := range work {
		mine := rest[:len(b.Ranges())]
		rest = rest[len(mine):]
		img := b.Image()
		var newSum uint32
		if b.Flags&mbuf.FlagAllocated != 0 {
			newSum = layout.ObjChecksum(img)
		} else {
			newSum = b.OrigCsum
			base := b.OID.HeaderOff()
			for _, ar := range mine {
				newSum = csum.Update(newSum, b.Size(), ar.off-base, ar.old, ar.new)
			}
		}
		hdr := b.Header()
		hdr.Csum = newSum
		b.SetHeader(hdr)
		if b.Flags&mbuf.FlagAllocated == 0 {
			// The checksum field (image bytes [12,16)) becomes part of
			// the write-back set. It is excluded from the checksum
			// domain, so no recursive refresh is needed. The old bytes
			// feed the parity delta, so a failed read must go through
			// online recovery like any other — substituting zeros would
			// fold a wrong delta into the zone's parity column.
			var old [4]byte
			off := b.OID.HeaderOff() + 12
			if err := tx.e.dev.ReadAt(old[:], off); err != nil {
				if rerr := tx.e.faultRepair(off, 4, err); rerr != nil {
					return rerr
				}
				if err := tx.e.dev.ReadAt(old[:], off); err != nil {
					return err
				}
			}
			*ranges = append(*ranges, applyRange{
				off: off,
				new: img[12:16],
				old: old[:],
			})
		}
	}
	return nil
}

// updateParitySegments folds a delta at absolute offset off into zone
// parity, splitting at row boundaries (objects may span rows).
func (e *Engine) updateParitySegments(off uint64, delta []byte) {
	for len(delta) > 0 {
		loc := e.geo.Locate(off)
		n := min(uint64(len(delta)), e.geo.RowSize()-loc.Col)
		e.par.Update(loc.Zone, loc.Col, delta[:n])
		off += n
		delta = delta[n:]
	}
}

// applyAllocOp applies an allocator op, folding the CM entry change into
// parity (and mirroring it to the replica pool when one exists).
func (e *Engine) applyAllocOp(op alloc.Op) error {
	return e.heap.Apply(op, func(off uint64, old, new_ []byte) {
		if e.mode.Parity() {
			delta := make([]byte, len(new_))
			xor.Delta(delta, old, new_)
			e.updateParitySegments(off, delta)
			e.dev.Fence()
		}
		if e.replica != nil {
			e.replica.WriteAt(off, new_)
			e.replica.Persist(off, uint64(len(new_)))
		}
	})
}

// abortReleasing is the internal abort used on commit failures after
// tx.done is set.
func (tx *Tx) abortReleasing() {
	e := tx.e
	for _, res := range tx.allocs {
		if _, live := tx.allocOffs[res.UserOff]; live {
			e.heap.Release(res)
		}
	}
	if tx.undoSpan != nil {
		tx.rollbackDirect()
	}
	tx.releaseLate()
	tx.w.Clear()
	e.stats.Aborts.Add(1)
}

func (tx *Tx) commitPmemobj() error {
	e := tx.e
	if len(tx.undoSpan) == 0 && len(tx.allocs) == 0 && len(tx.frees) == 0 && tx.root == nil {
		tx.w.Clear()
		e.stats.EmptyTxs.Add(1)
		return nil
	}
	e.waitUnfrozen()
	e.commitGate.RLock()
	defer e.commitGate.RUnlock()

	// Persist the in-place writes (undo protects them until the lane
	// clears).
	for _, s := range tx.undoSpan {
		e.dev.Flush(s.off, s.n)
	}
	e.dev.Fence()
	// Pmemobj-R: mirror the modified ranges into the replica pool.
	if e.replica != nil {
		for _, s := range tx.undoSpan {
			e.replica.WriteAt(s.off, e.dev.Slice(s.off, s.n))
			e.replica.Flush(s.off, s.n)
		}
		e.replica.Fence()
	}
	// Pmemobj-P (§3.5 extension): fold snapshot⊕current patches into
	// zone parity. Snapshots are deduplicated, so each byte pairs its
	// first logged image with its final contents exactly once. A crash
	// before the commit flag rolls the data back and recomputes parity
	// for these columns; after the flag both are already consistent.
	if e.mode.Parity() {
		for _, rec := range tx.undoRecs {
			if !e.geo.InZoneData(rec.off) {
				continue
			}
			delta := make([]byte, len(rec.old))
			xor.Delta(delta, rec.old, e.dev.Slice(rec.off, uint64(len(rec.old))))
			e.updateParitySegments(rec.off, delta)
		}
		e.dev.Fence()
	}
	// Metadata ops ride the same lane: appending them and flipping the
	// lane to redo-committed makes them atomic with the data commit.
	for _, res := range tx.allocs {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(res.Op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	for _, op := range tx.frees {
		if err := tx.w.Append(recAllocOp, alloc.EncodeOp(op)); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	if tx.root != nil {
		var p [24]byte
		binary.LittleEndian.PutUint64(p[0:], tx.root.oid.Pool)
		binary.LittleEndian.PutUint64(p[8:], tx.root.oid.Off)
		binary.LittleEndian.PutUint64(p[16:], tx.root.size)
		if err := tx.w.Append(recRoot, p[:]); err != nil {
			tx.abortReleasing()
			return err
		}
	}
	tx.w.Commit() // durability point: undo discarded, metadata committed
	for _, res := range tx.allocs {
		if err := e.applyAllocOp(res.Op); err != nil {
			return fmt.Errorf("core: applying alloc op: %w (%w)", err, ErrNeedReopen)
		}
	}
	for _, op := range tx.frees {
		if err := e.applyAllocOp(op); err != nil {
			return fmt.Errorf("core: applying free op: %w (%w)", err, ErrNeedReopen)
		}
	}
	if tx.root != nil {
		e.applyRoot(tx.root.oid, tx.root.size)
	}
	tx.releaseLate()
	tx.w.Clear()
	return nil
}

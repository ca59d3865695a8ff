package pangolin

import (
	"errors"

	"github.com/pangolin-go/pangolin/internal/core"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// ErrReadBusy reports that a read-view Get could not proceed because the
// pool is frozen (or freezing) for online recovery or scrubbing. Retry
// the read through the pool's owner goroutine, whose repairing path
// waits the freeze out.
var ErrReadBusy = core.ErrReadBusy

// CorruptionError reports object corruption — a checksum mismatch or an
// implausible header — that the current read path could not (ReadView)
// or cannot (owner path after retries) repair. On a ReadView it is
// retryable: route the read through the pool's owner goroutine, whose
// repairing path runs online recovery.
type CorruptionError = core.CorruptionError

// IsCorruption reports whether err carries a CorruptionError, the typed
// "object failed verification" condition a ReadView caller resolves by
// retrying through the owner path (as opposed to ErrReadBusy, which is a
// transient freeze window).
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// PoisonError reports a load from a poisoned page — an uncorrectable
// media error, the SIGBUS analog. On a ReadView it is retryable exactly
// like a CorruptionError: the owner path's repairing read rebuilds the
// page from parity.
type PoisonError = nvm.PoisonError

// IsPoison reports whether err carries a PoisonError.
func IsPoison(err error) bool {
	var pe *PoisonError
	return errors.As(err, &pe)
}

// ReadView returns a read-only handle onto the same pool for concurrent
// verified reads. Get (and GetFromPool, and any structure Lookup running
// against the view) executes on the caller's goroutine, verifies the
// object's checksum in place on every call (objects up to
// Config.ReadVerifyLimit; larger ones keep the header and poison checks)
// and never mutates the pool: media faults and checksum mismatches
// return their errors instead of triggering online recovery, and freeze
// windows return ErrReadBusy. A read costs the object's checksum plus
// constant-time header checks, with no per-view state, so bytes
// scribbled after one read fail the next.
//
// Concurrency contract: any number of goroutines may read through the
// view simultaneously, and view reads may overlap Scrub and online
// recovery (they bounce with ErrReadBusy rather than racing repairs).
// The caller must guarantee no transaction is in its commit while a view
// read runs — internal/shard's per-shard reader gate is the canonical
// provider — and must route failed view reads through the pool's owner
// goroutine. A read that failed verification must be retried verified
// (through the view again, once the owner has excluded commits and run
// a repair), never through an owner-path Get that does not verify:
// under VerifyDefault that would serve the bytes the view rejected.
//
// Only Get/ObjectSize/ObjectType-style reads are meaningful on a view;
// transactional methods still work but follow the owner-path rules.
func (p *Pool) ReadView() *Pool {
	return &Pool{e: p.e, view: true, scrubCfg: p.scrubCfg}
}

// IsReadView reports whether this handle is a concurrent read view.
func (p *Pool) IsReadView() bool { return p.view }

// ReadBusy reports whether err is the transient "pool frozen or
// freezing" condition that a read-view caller should resolve by routing
// the read through the pool's owner goroutine.
func ReadBusy(err error) bool { return errors.Is(err, ErrReadBusy) }

package server

import (
	"context"
	"fmt"
)

// Backup streams a snapshot-consistent image of the whole keyspace from
// the server at addr, calling fn for every pair in ascending key order;
// fn returning false stops the backup early. The server pins one
// generation per shard when the first page is served, so the image is
// exactly the set's committed state at that moment — a backup taken
// under sustained writes restores to one consistent state, not a smear
// of mid-backup commits.
//
// Backup is a SnapScanner over the full key range on a connection of
// its own, paging MaxScanPairs pairs at a time. Closing that connection
// — on completion, on an early stop, or when ctx ends — releases the
// server-side pins. Server-side failures arrive as typed errors
// (ErrSnapshotUnsupported when a shard backend cannot snapshot,
// ErrSnapshotTooOld when the pins were evicted mid-scan), never as a
// silently truncated image. ctx bounds the whole backup; when it ends
// first, the returned error wraps ctx.Err().
func Backup(ctx context.Context, addr string, fn func(k, v uint64) bool) error {
	c, err := Dial(ctx, addr, WithPipelineDepth(1))
	if err != nil {
		return err
	}
	defer c.Close()
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	sc := c.SnapScan(0, ^uint64(0))
	for !sc.Done() {
		pairs, err := sc.Next(MaxScanPairs)
		if ctx.Err() != nil {
			return fmt.Errorf("server: backup: %w", ctx.Err())
		}
		if err != nil {
			return fmt.Errorf("server: backup: %w", err)
		}
		for _, p := range pairs {
			if !fn(p.K, p.V) {
				return nil
			}
		}
	}
	return nil
}

package diskstore

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"sort"

	"github.com/paper-repo/staccato-go/internal/framelog"
)

// Compact rewrites every live record into fresh segment files and drops
// everything else — superseded puts and tombstones — reclaiming the disk
// space appends accumulate. Compaction is explicit (no background
// goroutine) and exclusive: reads and writes wait while it runs. Each
// record is copied as readRuns read and checked it, so a damaged record
// fails the compaction with ErrCorrupt instead of being sealed again
// under a fresh checksum; the old segments stay the store.
//
// The swap is crash-safe through the manifest. New segments are written
// and fsynced while the manifest still names only the old ones; a single
// atomic manifest replace then flips the store to the new segments, and
// the old files are deleted last. A crash before the flip leaves the old
// store intact (the new files are swept as stale on Open); a crash after
// it leaves the compacted store intact (the old files are swept instead).
//
//lint:allow lockio compaction is exclusive by design: the whole rewrite-and-flip must run under the write lock so no reader ever observes a half-swapped segment set
func (s *Store) Compact(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}

	ids := s.liveIDs()
	sort.Strings(ids)

	// Write all live records, in ID order, to new segments numbered after
	// every existing one. On any failure the new files are abandoned; the
	// next Open removes them.
	num := s.nextSegNum()
	var (
		newOrder []uint64
		newSegs  = make(map[uint64]*segment)
		newRefs  = make(map[string]recordRef, len(ids))
		cur      *segment
	)
	abandon := func(err error) error {
		for _, seg := range newSegs {
			seg.f.Close()
			s.fsys.Remove(s.path(segName(seg.num)))
		}
		return err
	}
	newSegment := func() error {
		f, err := s.fsys.OpenFile(s.path(segName(num)), os.O_RDWR|os.O_CREATE|os.O_EXCL)
		if err != nil {
			return fmt.Errorf("diskstore: %w", err)
		}
		cur = &segment{num: num, f: f}
		newSegs[num] = cur
		newOrder = append(newOrder, num)
		num++
		return nil
	}
	if err := newSegment(); err != nil {
		return abandon(err)
	}
	var b batch
	for from := 0; from < len(ids); from += readRun {
		if err := ctx.Err(); err != nil {
			return abandon(err)
		}
		run := ids[from:min(from+readRun, len(ids))]
		if err := s.readRuns(run, &b); err != nil {
			return abandon(err)
		}
		// readRuns leaves the slots in storage order; write in ID order.
		slices.SortFunc(b.slots, func(x, y slot) int { return cmp.Compare(x.idx, y.idx) })
		for _, sl := range b.slots {
			if cur.size >= s.opts.MaxSegmentBytes {
				if err := newSegment(); err != nil {
					return abandon(err)
				}
			}
			frame := b.frame(sl)
			if _, err := cur.f.WriteAt(frame, cur.size); err != nil {
				return abandon(fmt.Errorf("diskstore: %w", err))
			}
			newRefs[run[sl.idx]] = recordRef{seg: cur.num, off: cur.size + framelog.HeaderSize, n: sl.ref.n}
			cur.size += int64(len(frame))
		}
	}
	for _, seg := range newSegs {
		if err := seg.f.Sync(); err != nil {
			return abandon(fmt.Errorf("diskstore: %w", err))
		}
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return abandon(fmt.Errorf("diskstore: %w", err))
	}

	// The flip. Abandoning the new segments is only safe while the
	// on-disk manifest still names the old ones — that is, until the
	// rename lands. After a successful rename the new segments ARE the
	// store, so later failures (the directory fsync) must complete the
	// swap anyway rather than delete files the manifest references.
	renamed, flipSyncErr := framelog.ReplaceFile(s.fsys, s.path(manifestName), encodeManifest(newOrder))
	if !renamed {
		return abandon(fmt.Errorf("diskstore: %w", flipSyncErr))
	}

	oldSegs := s.segs
	for _, seg := range oldSegs {
		seg.f.Close()
		if flipSyncErr == nil {
			// Old files are now stale; delete them. Failures here are
			// cosmetic — the next Open sweeps anything left behind.
			s.fsys.Remove(s.path(segName(seg.num)))
		}
		// With the flip not yet durable, keep the old files: if the
		// machine crashes before the rename's directory entry hits disk,
		// the old manifest plus old segments are still a consistent store.
	}
	s.segs = newSegs
	s.order = newOrder
	s.index = newRefs
	s.active = newSegs[newOrder[len(newOrder)-1]]
	// The rewritten segments hold exactly one record per live document, so
	// the op count a future replay would compute starts over from there.
	s.ops = uint64(len(newRefs))
	if flipSyncErr != nil {
		return fmt.Errorf("diskstore: compaction committed, but making it durable failed: %w (old segments kept; the next successful Open sweeps them)", flipSyncErr)
	}
	return nil
}

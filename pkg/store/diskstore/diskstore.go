// Package diskstore implements a durable, disk-backed store.DocStore on
// append-only segment files, so a corpus ingested once survives the
// process and can be reopened and queried in place — the "manage OCR
// data inside a database" half of the Staccato thesis. Every file call
// goes through a framelog.FS, so OpenFS over an in-memory file system runs
// the same store — framing, replay, commit, Compact — as Open on a disk.
//
// # Writes
//
// A Batch is the one writer: its Puts and Deletes commit together, in
// order, with one append and one fsync per touched segment, all or none.
// A Delete of an ID that is not live at its place in the batch — never
// stored, already deleted, or deleted earlier in the same batch — writes
// nothing, so a batch of only such deletes leaves the store, and its
// CommitState, as they were.
//
// # On-disk layout
//
// A store is a directory:
//
//	MANIFEST            live segment numbers, in replay order
//	seg-00000001.log    append-only records
//	seg-00000002.log    ...
//
// Every record is framed as
//
//	uint32 payloadLen | uint32 crc32(payload) | payload
//	payload = kind byte | uvarint len(id) | id | encoded doc (puts only)
//
// where the document bytes are the versioned store.Encode form. Records
// are only ever appended; a Put of an existing ID appends a superseding
// record and a Delete of a live ID appends a tombstone. The in-memory
// index (ID → segment, offset) is rebuilt by replaying the segments in
// manifest order on Open, so the newest record for each ID wins and disk
// holds no secondary structures that can desynchronize.
//
// # Reads
//
// Get, GetBatch, ViewBatch, Scan and Compact get every record byte from
// one reader. It reads each run of adjacent frames with one ReadAt and
// checks every frame — its length against the index, its checksum —
// before any caller sees the payload. A frame that fails is ErrCorrupt: a
// damaged record is an error, never an answer, and Compact never seals it
// again under a fresh checksum.
//
// # Crash safety
//
// Frames, the torn-tail rule and the atomic file replace all live in
// internal/framelog; this package states only its policy. Replay
// truncates a torn tail — what a crash mid-append leaves — losing only
// the torn record, and refuses to open a segment with interior damage
// rather than drop the records after it. The manifest changes only
// through framelog.ReplaceFile, so the set of live segments changes
// atomically; segment files not named by the manifest are leftovers of an
// interrupted Compact or roll and are deleted on Open. Batch groups many
// writes into a single fsync, which is where ingest throughput comes from
// (see the package benchmarks).
package diskstore

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("diskstore: store is closed")

// ErrCorrupt is returned, wrapped with the segment and offset, by a read
// that meets a record whose frame no longer holds what was written: its
// length disagrees with the index, or its checksum fails. The damaged
// bytes never reach the caller.
var ErrCorrupt = errors.New("diskstore: corrupt record")

const (
	manifestName  = "MANIFEST"
	manifestTemp  = manifestName + framelog.TempSuffix
	manifestMagic = "staccato-diskstore v1"
	lockName      = "LOCK"
	segPrefix     = "seg-"
	segSuffix     = ".log"

	recPut    = byte(1)
	recDelete = byte(2)
)

// CommitState fingerprints the store's on-disk write history: the total
// number of records in the live segments (superseded puts and tombstones
// included), their total byte size, and the active segment's number.
// Ops and Bytes only ever grow between compactions; a compaction resets
// them but allocates fresh, strictly higher segment numbers, so Seg
// guarantees a post-compaction state can never collide with any stamp
// taken before it (Ops and Bytes alone could coincide by size accident).
// Derived structures — notably the inverted index kept by pkg/staccatodb
// — persist the state they were built against and compare it on reopen:
// any mismatch (a write made without the derived structure attached, a
// torn tail truncated during replay, a compaction) marks the structure
// stale.
type CommitState struct {
	Ops   uint64
	Bytes int64
	Seg   uint64
}

// Options configure Open. The zero value is ready to use.
type Options struct {
	// MaxSegmentBytes rolls the active segment to a fresh file once it
	// grows past this size (default 4 MiB). Smaller segments mean more
	// files but finer-grained compaction.
	MaxSegmentBytes int64
	// NoSync skips the fsync that normally ends every commit. Throughput
	// rises sharply; an OS crash (not a process crash) may lose the most
	// recent commits. The record framing keeps the store openable either
	// way.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// recordRef locates one live record's payload on disk.
type recordRef struct {
	seg uint64
	off int64 // payload offset within the segment file
	n   int   // payload length
}

// segment is one open append-only file.
type segment struct {
	num  uint64
	f    framelog.File
	size int64
}

func segName(num uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, num, segSuffix)
}

// Store is a durable DocStore. It is safe for concurrent use: reads run
// in parallel, writes are serialized.
type Store struct {
	fsys framelog.FS
	dir  string
	opts Options
	lock io.Closer // the LOCK file's handle; held for the store's lifetime

	mu     sync.RWMutex
	index  map[string]recordRef
	segs   map[uint64]*segment
	order  []uint64 // manifest order; last entry is the active segment
	active *segment
	ops    uint64 // records in live segments, superseded and tombstones included
	closed bool

	// sorted is the ascending live ID listing ListDocIDs hands out copies
	// of, or nil when it must be rebuilt; idGen counts changes to the ID
	// set, so a listing sorted outside the lock is kept only if no write
	// changed the set meanwhile.
	sorted []string
	idGen  uint64
}

var _ store.DocStore = (*Store)(nil)

// Open opens (creating if necessary) the store in dir and rebuilds the
// in-memory index by replaying the live segments. Torn tails are
// truncated; segment files the manifest does not name are removed. The
// directory is flock'd for the store's lifetime (on platforms with
// flock), so a second process opening the same store fails fast instead
// of corrupting it.
func Open(dir string, opts Options) (*Store, error) {
	return OpenFS(framelog.OS, dir, opts)
}

// OpenFS is Open over any file system; every file call the store makes
// goes through fsys.
func OpenFS(fsys framelog.FS, dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	lock, err := fsys.Lock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		fsys:  fsys,
		dir:   dir,
		opts:  opts,
		lock:  lock,
		index: make(map[string]recordRef),
		segs:  make(map[uint64]*segment),
	}
	opened := false
	defer func() {
		if !opened {
			s.closeSegments()
			lock.Close()
		}
	}()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	order, err := s.readManifest()
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if slices.ContainsFunc(names, isSegName) {
			return nil, fmt.Errorf("diskstore: %s has segment files but no %s; refusing to guess replay order", dir, manifestName)
		}
	case err != nil:
		return nil, err
	}
	s.order = order
	if err := s.removeStaleFiles(names); err != nil {
		return nil, err
	}
	for _, num := range order {
		if err := s.replaySegment(num); err != nil {
			return nil, err
		}
	}
	if len(s.order) == 0 {
		// A new store, or a manifest with no segments (e.g. hand-edited):
		// start from an empty active segment.
		if err := s.addSegment(1); err != nil {
			return nil, err
		}
	} else {
		s.active = s.segs[s.order[len(s.order)-1]]
	}
	opened = true
	return s, nil
}

func isSegName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// path returns the location of the store file name.
func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// removeStaleFiles deletes, of the directory's names, the segment files
// the manifest does not name and any leftover manifest temp file —
// debris of an interrupted Compact.
func (s *Store) removeStaleFiles(names []string) error {
	live := make(map[string]bool, len(s.order))
	for _, num := range s.order {
		live[segName(num)] = true
	}
	for _, name := range names {
		if name == manifestTemp || (isSegName(name) && !live[name]) {
			if err := s.fsys.Remove(s.path(name)); err != nil {
				return fmt.Errorf("diskstore: removing stale %s: %w", name, err)
			}
		}
	}
	return nil
}

// replaySegment opens one segment and replays its records into the
// index. A frame that fails its checksum, a payload that does not parse
// and an unknown record kind are the same class of damage, classified by
// framelog: a torn tail — the signature of a crash mid-append — is
// truncated away, losing only that record. Interior damage cannot come
// from a torn append (appends only ever extend the file); it is media
// damage, and replay refuses to open the store rather than silently
// discarding every record after it.
func (s *Store) replaySegment(num uint64) error {
	name := segName(num)
	f, err := s.fsys.OpenFile(s.path(name), os.O_RDWR)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	seg := &segment{num: num, f: f}
	s.segs[num] = seg
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}

	r := framelog.NewReader(io.NewSectionReader(f, 0, size), size)
	var dmg *framelog.Damage
	for dmg == nil {
		off := r.Offset()
		payload, err := r.Next()
		if err == io.EOF || errors.As(err, &dmg) {
			break
		}
		if err != nil {
			return fmt.Errorf("diskstore: reading %s: %w", name, err)
		}
		kind, id, _, perr := parsePayload(payload)
		switch {
		case perr != nil:
			dmg = r.Bad("malformed record payload")
		case kind == recPut:
			s.index[string(id)] = recordRef{seg: num, off: off + framelog.HeaderSize, n: len(payload)}
			s.ops++
		case kind == recDelete:
			delete(s.index, string(id))
			s.ops++
		default:
			dmg = r.Bad(fmt.Sprintf("unknown record kind %d", kind))
		}
	}
	seg.size = r.Offset()
	if dmg == nil {
		return nil
	}
	if !dmg.Torn {
		// More (possibly valid) data follows the bad frame, so truncating
		// here would discard records a crash cannot explain losing.
		return fmt.Errorf(
			"diskstore: %s: %s at offset %d with %d bytes after it — not a torn tail; refusing to drop data (restore the file from a copy, or truncate it to %d by hand to discard everything after the damage)",
			name, dmg.What, seg.size, size-seg.size, seg.size)
	}
	// Truncate so future appends start at a record boundary and the next
	// replay ends cleanly.
	if err := f.Truncate(seg.size); err != nil {
		return fmt.Errorf("diskstore: truncating torn tail of %s: %w", name, err)
	}
	return nil
}

// addSegment creates segment file num, records it in the manifest, and
// makes it the active append target. The file is created and made durable
// before the manifest names it, so a crash between the two steps leaves
// only an unreferenced empty file.
func (s *Store) addSegment(num uint64) error {
	f, err := s.fsys.OpenFile(s.path(segName(num)), os.O_RDWR|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	order := append(append([]uint64{}, s.order...), num)
	if err := s.writeManifest(order); err != nil {
		f.Close()
		return err
	}
	seg := &segment{num: num, f: f}
	s.segs[num] = seg
	s.order = order
	s.active = seg
	return nil
}

func (s *Store) nextSegNum() uint64 {
	var max uint64
	for _, n := range s.order {
		if n > max {
			max = n
		}
	}
	return max + 1
}

// op is one pending write: a put (doc != nil) or a tombstone.
type op struct {
	kind byte
	id   string
	doc  []byte // encoded document, puts only
}

// writeOps appends the ops' records to the active segment (rolling to new
// segments as MaxSegmentBytes requires), fsyncs every touched file once,
// and only then applies the index updates. A delete of an ID that is not
// live at its place in ops is dropped first (see liveOps). The caller must
// hold s.mu.
//
// The ops apply all or none: if a write or sync fails, the index is left
// as it was and every touched segment is truncated back to its size at
// entry (a segment the commit rolled to, back to empty), so none of the
// ops replays on the next Open either. The truncate is best effort: one
// that fails too leaves its records for the next Open.
func (s *Store) writeOps(ops []op) error {
	if s.closed {
		return ErrClosed
	}
	if ops = s.liveOps(ops); len(ops) == 0 {
		return nil
	}
	touched := []*segment{s.active}
	starts := []int64{s.active.size}

	refs := make([]recordRef, len(ops))
	var buf []byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := s.active.f.WriteAt(buf, s.active.size); err != nil {
			return fmt.Errorf("diskstore: %w", err)
		}
		s.active.size += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	fail := func(err error) error {
		for i, seg := range touched {
			if seg.f.Truncate(starts[i]) == nil {
				seg.size = starts[i]
			}
		}
		return err
	}

	for i, o := range ops {
		if s.active.size+int64(len(buf)) >= s.opts.MaxSegmentBytes &&
			s.active.size+int64(len(buf)) > 0 {
			if err := flush(); err != nil {
				return fail(err)
			}
			if err := s.addSegment(s.nextSegNum()); err != nil {
				return fail(err)
			}
			touched = append(touched, s.active)
			starts = append(starts, 0)
		}
		payload := encodePayload(o)
		refs[i] = recordRef{
			seg: s.active.num,
			off: s.active.size + int64(len(buf)) + framelog.HeaderSize,
			n:   len(payload),
		}
		buf = framelog.Append(buf, payload)
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	if !s.opts.NoSync {
		for _, seg := range touched {
			if err := seg.f.Sync(); err != nil {
				return fail(fmt.Errorf("diskstore: %w", err))
			}
		}
	}
	for i, o := range ops {
		_, had := s.index[o.id]
		if o.kind == recPut {
			s.index[o.id] = refs[i]
		} else {
			delete(s.index, o.id)
		}
		if had != (o.kind == recPut) {
			s.sorted = nil
			s.idGen++
		}
	}
	s.ops += uint64(len(ops))
	return nil
}

// liveOps returns ops without the deletes of IDs that are not live at
// their place in ops: absent from the store and not put earlier in ops, or
// deleted earlier in ops since. Ops without a delete are returned as they
// are, at the cost of one pass over their kinds. Callers hold s.mu.
func (s *Store) liveOps(ops []op) []op {
	if !slices.ContainsFunc(ops, func(o op) bool { return o.kind == recDelete }) {
		return ops
	}
	live := make(map[string]bool, len(ops)) // each ID ops named so far: live after them?
	kept := make([]op, 0, len(ops))
	for _, o := range ops {
		was, named := live[o.id]
		if !named {
			_, was = s.index[o.id]
		}
		if o.kind == recPut || was {
			kept = append(kept, o)
		}
		live[o.id] = o.kind == recPut
	}
	return kept
}

// diskBytes sums the live segment files' sizes. Callers hold s.mu.
func (s *Store) diskBytes() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// commitStateLocked computes the current CommitState. Callers hold s.mu.
func (s *Store) commitStateLocked() CommitState {
	st := CommitState{Ops: s.ops, Bytes: s.diskBytes()}
	if s.active != nil {
		st.Seg = s.active.num
	}
	return st
}

// CommitState returns the store's current write-history fingerprint; see
// the type's documentation for how derived structures use it.
func (s *Store) CommitState() CommitState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commitStateLocked()
}

// ListDocIDs returns every live document ID in ascending order without
// reading document bodies — the source of every query-engine run that
// walks the corpus. The sorted listing is kept between calls and rebuilt
// only after a write changed the ID set; each call gets its own copy.
func (s *Store) ListDocIDs(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	if s.sorted != nil {
		ids := slices.Clone(s.sorted)
		s.mu.RUnlock()
		return ids, nil
	}
	ids, gen := s.liveIDs(), s.idGen
	s.mu.RUnlock()
	sort.Strings(ids)
	s.mu.Lock()
	if s.idGen == gen && !s.closed {
		s.sorted = slices.Clone(ids)
	}
	s.mu.Unlock()
	return ids, nil
}

// liveIDs returns the live document IDs in map order; sorting them is
// the caller's job, outside the lock where it can be. Callers hold s.mu.
func (s *Store) liveIDs() []string {
	ids := make([]string, 0, len(s.index))
	for id := range s.index {
		ids = append(ids, id)
	}
	return ids
}

// Get returns the document with the given ID, or store.ErrNotFound: the
// one-ID case of GetBatch.
func (s *Store) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	docs, err := s.GetBatch(ctx, []string{id})
	if err != nil {
		return nil, err
	}
	if docs[0] == nil {
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, id)
	}
	return docs[0], nil
}

// readAt fills dst with the bytes of segment num from off on. Callers
// must hold s.mu: the lock keeps Compact from closing the segment file
// under the ReadAt.
func (s *Store) readAt(num uint64, off int64, dst []byte) error {
	seg := s.segs[num]
	if seg == nil {
		return fmt.Errorf("diskstore: index references missing segment %d", num)
	}
	if _, err := seg.f.ReadAt(dst, off); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// livePayload parses one record payload and returns its encoded
// document, verifying the record is the live put the index claimed for
// id — the single validation GetBatch and ViewBatch apply to a payload
// readRuns has vouched for.
func livePayload(id string, payload []byte) ([]byte, error) {
	kind, gotID, doc, err := parsePayload(payload)
	if err != nil {
		return nil, err
	}
	if kind != recPut || string(gotID) != id {
		return nil, fmt.Errorf("diskstore: index for %q points at a %q record for %q", id, kindName(kind), gotID)
	}
	return doc, nil
}

// batch is the memory of one batched read: the found records in the
// order they were read, and one buffer holding every run of them. It is
// pooled, so a scan's batches reuse their buffers and their View.
type batch struct {
	slots []slot
	buf   []byte
	view  store.View
}

// slot is one found record of a batch: its position in the ids, where it
// lives on disk, and where its payload starts in the batch buffer.
type slot struct {
	idx int
	ref recordRef
	at  int
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// payload returns sl's bytes in b's buffer.
func (b *batch) payload(sl slot) []byte { return b.buf[sl.at : sl.at+sl.ref.n] }

// frame returns sl's whole frame, header included, in b's buffer.
func (b *batch) frame(sl slot) []byte { return b.buf[sl.at-framelog.HeaderSize : sl.at+sl.ref.n] }

// readRun is how many records Scan and Compact read at a time: enough
// that a run of adjacent records is one read, few enough that a run's
// bytes stay well under a MB.
const readRun = 256

// readBatch is readRuns under the read lock, taken once for the whole
// batch; parsing and decoding happen after it is released.
func (s *Store) readBatch(ctx context.Context, ids []string, b *batch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	//lint:allow lockio the read lock must pin the segment files open across the batch's ReadAt pass; parsing happens after RUnlock
	return s.readRuns(ids, b)
}

// readRuns is the store's one reader: Get, GetBatch, ViewBatch, Scan and
// Compact get every record byte through it. The records are sorted by
// (segment, offset), and each run of frames that sit back to back in one
// segment — the common case for a sorted batch after a bulk ingest — is
// one read into b.buf from the run's first frame header, so a batch costs
// one read per run of adjacent records instead of one per ID. Before any
// caller sees a payload, framelog.Check vouches for its frame: the length
// the index recorded and the checksum. A frame that fails is ErrCorrupt.
// IDs with no live record get no slot. Callers hold s.mu.
func (s *Store) readRuns(ids []string, b *batch) error {
	b.slots = b.slots[:0]
	for i, id := range ids {
		if ref, ok := s.index[id]; ok {
			b.slots = append(b.slots, slot{idx: i, ref: ref})
		}
	}
	slices.SortFunc(b.slots, func(x, y slot) int {
		if c := cmp.Compare(x.ref.seg, y.ref.seg); c != 0 {
			return c
		}
		return cmp.Compare(x.ref.off, y.ref.off)
	})
	b.buf = b.buf[:0]
	for i := 0; i < len(b.slots); {
		// Extend the run over every record that repeats the previous one
		// or starts right after its frame.
		first, j := b.slots[i].ref, i+1
		for ; j < len(b.slots); j++ {
			prev, next := b.slots[j-1].ref, b.slots[j].ref
			if next.seg != first.seg ||
				next.off != prev.off && next.off != prev.off+int64(prev.n)+framelog.HeaderSize {
				break
			}
		}
		last := b.slots[j-1].ref
		from := first.off - framelog.HeaderSize
		n := int(last.off-from) + last.n
		start := len(b.buf)
		b.buf = slices.Grow(b.buf, n)[:start+n]
		if err := s.readAt(first.seg, from, b.buf[start:]); err != nil {
			return err
		}
		for ; i < j; i++ {
			sl := &b.slots[i]
			sl.at = start + int(sl.ref.off-from)
			if err := framelog.Check(b.frame(*sl)); err != nil {
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, segName(sl.ref.seg), sl.ref.off-framelog.HeaderSize, err)
			}
		}
	}
	return nil
}

// GetBatch returns the documents for ids, aligned with the input: out[i]
// is the document for ids[i], or nil when no document has that ID. It
// reads like ViewBatch and decodes every record after the lock is
// released. The engine reads through ViewBatch; GetBatch serves callers
// that want whole documents.
func (s *Store) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	b := batches.Get().(*batch)
	defer batches.Put(b)
	if err := s.readBatch(ctx, ids, b); err != nil {
		return nil, err
	}
	out := make([]*staccato.Doc, len(ids))
	for _, sl := range b.slots {
		data, err := livePayload(ids[sl.idx], b.payload(sl))
		if err != nil {
			return nil, err
		}
		if out[sl.idx], err = store.Decode(data); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ViewBatch implements store.DocStore: it reads ids' records with one
// read per run of adjacent records into a pooled buffer and calls fn on
// each, in storage order, parsed in place into one reused View.
func (s *Store) ViewBatch(ctx context.Context, ids []string, fn func(i int, v *store.View) error) error {
	b := batches.Get().(*batch)
	defer batches.Put(b)
	if err := s.readBatch(ctx, ids, b); err != nil {
		return err
	}
	for _, sl := range b.slots {
		data, err := livePayload(ids[sl.idx], b.payload(sl))
		if err != nil {
			return err
		}
		if err := b.view.Parse(data); err != nil {
			return err
		}
		if err := fn(sl.idx, &b.view); err != nil {
			return err
		}
	}
	return nil
}

// Scan visits all documents in ascending ID order, reading them
// through GetBatch in runs of readRun. The listing of IDs is taken up
// front and fn runs outside the lock, so fn may call back into the
// store; a document deleted before its run is read is skipped. If fn
// returns store.ErrStopScan the scan ends and Scan returns nil; any other
// error ends the scan and is returned.
func (s *Store) Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error {
	ids, err := s.ListDocIDs(ctx)
	for from := 0; err == nil && from < len(ids); from += readRun {
		var docs []*staccato.Doc
		docs, err = s.GetBatch(ctx, ids[from:min(from+readRun, len(ids))])
		for _, d := range docs {
			if d == nil { // deleted since the listing
				continue
			}
			if err = fn(d); err != nil {
				break
			}
		}
	}
	if errors.Is(err, store.ErrStopScan) {
		return nil
	}
	return err
}

// Len returns the number of live documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats describes the store's current disk footprint.
type Stats struct {
	// Docs is the number of live documents.
	Docs int
	// Segments is the number of live segment files.
	Segments int
	// DiskBytes is the total size of the live segment files, including
	// superseded records and tombstones not yet compacted away.
	DiskBytes int64
}

// Stats reports live document count, segment count, and disk bytes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Docs: len(s.index), Segments: len(s.order), DiskBytes: s.diskBytes()}
}

// Close releases the store's file handles. Operations after Close return
// ErrClosed. Close never loses committed data: every commit is already
// on disk (and, unless NoSync, fsynced) before its call returns.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.closeSegments()
	if lerr := s.lock.Close(); lerr != nil && err == nil {
		err = lerr // closing the handle releases the flock
	}
	return err
}

func (s *Store) closeSegments() error {
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// maxIDBytes caps a document ID's length. Every search result, index
// record and cached candidate carries the ID, so an unbounded one lets a
// single request make every response that names the document megabytes
// long.
const maxIDBytes = 256

// putOp encodes doc as a put record. Every write passes through it, so it
// is where a document that is not a product of probability distributions
// is refused: each chunk needs at least one alternative, every probability
// in (0, 1], probabilities summing to 1, and a retained mass in [0, 1].
// Stored unchecked, such a chunk makes a query's "probability" exceed 1.
// An ID over maxIDBytes is refused here too.
func putOp(doc *staccato.Doc) (op, error) {
	if doc == nil || doc.ID == "" {
		return op{}, fmt.Errorf("diskstore: Put: %w: document must have a non-empty ID", store.ErrInvalidDoc)
	}
	if len(doc.ID) > maxIDBytes {
		return op{}, fmt.Errorf("diskstore: Put: %w: ID of %d bytes, over the limit of %d", store.ErrInvalidDoc, len(doc.ID), maxIDBytes)
	}
	for i, ch := range doc.Chunks {
		sum := 0.0
		for _, a := range ch.Alts {
			if !(a.Prob > 0 && a.Prob <= 1) {
				return op{}, fmt.Errorf("diskstore: Put %q: %w: chunk %d: probability %v outside (0, 1]", doc.ID, store.ErrInvalidDoc, i, a.Prob)
			}
			sum += a.Prob
		}
		if len(ch.Alts) == 0 || math.Abs(sum-1) > 1e-6 {
			return op{}, fmt.Errorf("diskstore: Put %q: %w: chunk %d: %d alternatives summing to %v, want 1", doc.ID, store.ErrInvalidDoc, i, len(ch.Alts), sum)
		}
		if !(ch.Retained >= 0 && ch.Retained <= 1) {
			return op{}, fmt.Errorf("diskstore: Put %q: %w: chunk %d: retained %v outside [0, 1]", doc.ID, store.ErrInvalidDoc, i, ch.Retained)
		}
	}
	data, err := store.Encode(doc)
	if err != nil {
		return op{}, err
	}
	return op{kind: recPut, id: doc.ID, doc: data}, nil
}

func encodePayload(o op) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(o.id)+len(o.doc))
	buf = append(buf, o.kind)
	buf = binary.AppendUvarint(buf, uint64(len(o.id)))
	buf = append(buf, o.id...)
	buf = append(buf, o.doc...)
	return buf
}

// parsePayload splits a record payload; id and doc alias p.
func parsePayload(p []byte) (kind byte, id, doc []byte, err error) {
	if len(p) < 1 {
		return 0, nil, nil, fmt.Errorf("diskstore: empty record payload")
	}
	kind = p[0]
	rest := p[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return 0, nil, nil, fmt.Errorf("diskstore: corrupt record key length")
	}
	rest = rest[w:]
	id = rest[:n]
	doc = rest[n:]
	if kind == recDelete && len(doc) != 0 {
		return 0, nil, nil, fmt.Errorf("diskstore: tombstone with %d trailing bytes", len(doc))
	}
	return kind, id, doc, nil
}

func kindName(k byte) string {
	switch k {
	case recPut:
		return "put"
	case recDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind=%d", k)
	}
}

// readManifest returns the live segment numbers in replay order.
func (s *Store) readManifest() ([]uint64, error) {
	data, err := s.fsys.ReadFile(s.path(manifestName))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, fmt.Errorf("diskstore: %s is not a %q manifest", manifestName, manifestMagic)
	}
	var order []uint64
	seen := make(map[uint64]bool)
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		n, err := strconv.ParseUint(line, 10, 64)
		if err != nil || n == 0 || seen[n] {
			return nil, fmt.Errorf("diskstore: bad manifest segment entry %q", line)
		}
		seen[n] = true
		order = append(order, n)
	}
	return order, nil
}

// encodeManifest renders the manifest naming order as the live segments.
func encodeManifest(order []uint64) []byte {
	var sb strings.Builder
	sb.WriteString(manifestMagic + "\n")
	for _, n := range order {
		fmt.Fprintf(&sb, "%d\n", n)
	}
	return []byte(sb.String())
}

// writeManifest atomically replaces the manifest.
func (s *Store) writeManifest(order []uint64) error {
	if _, err := framelog.ReplaceFile(s.fsys, s.path(manifestName), encodeManifest(order)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// Package diskstore implements a durable, disk-backed store.DocStore on
// append-only segment files, so a corpus ingested once survives the
// process and can be reopened and queried in place — the "manage OCR
// data inside a database" half of the Staccato thesis. OpenMem runs the
// same store — framing, replay, batch commit, Compact — over an
// in-memory file system: every file call goes through a framelog.FS, so
// there is one store and one write path, with or without a disk.
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
// record and a Delete appends a tombstone. The in-memory index (ID →
// segment, offset) is rebuilt by replaying the segments in manifest order
// on Open, so the newest record for each ID wins and disk holds no
// secondary structures that can desynchronize.
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
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
}

var _ store.DocStore = (*Store)(nil)

// Open opens (creating if necessary) the store in dir and rebuilds the
// in-memory index by replaying the live segments. Torn tails are
// truncated; segment files the manifest does not name are removed. The
// directory is flock'd for the store's lifetime (on platforms with
// flock), so a second process opening the same store fails fast instead
// of corrupting it.
func Open(dir string, opts Options) (*Store, error) {
	return open(framelog.OS, dir, opts)
}

// OpenMem opens a new, empty store over an in-memory file system. It runs
// the same framing, replay, batch commit and Compact as Open; nothing
// touches a real path, and the store's contents go when it does.
func OpenMem(opts Options) (*Store, error) {
	return open(framelog.NewMemFS(), "", opts)
}

// open is Open over any file system; every file call the store makes
// goes through fsys.
func open(fsys framelog.FS, dir string, opts Options) (*Store, error) {
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
			s.index[id] = recordRef{seg: num, off: off + framelog.HeaderSize, n: len(payload)}
			s.ops++
		case kind == recDelete:
			delete(s.index, id)
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
// and only then applies the index updates. The caller must hold s.mu.
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
	if len(ops) == 0 {
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
		if o.kind == recPut {
			s.index[o.id] = refs[i]
		} else {
			delete(s.index, o.id)
		}
	}
	s.ops += uint64(len(ops))
	return nil
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
// walks the corpus.
func (s *Store) ListDocIDs(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	ids := s.liveIDs()
	s.mu.RUnlock()
	sort.Strings(ids)
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

// Put stores doc durably, replacing any existing document with the same
// ID. Each Put is one record and (unless NoSync) one fsync; use Batch to
// amortize the fsync across many documents.
func (s *Store) Put(ctx context.Context, doc *staccato.Doc) error {
	o, err := putOp(doc)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockio the write path is serialized by design: append+fsync must be atomic with the index update or a crash could expose a record the index never covers
	return s.writeOps([]op{o})
}

// Get returns the document with the given ID, or store.ErrNotFound. Like
// GetBatch, it holds the read lock only long enough to copy the raw
// record off its segment; decoding happens after the lock is released.
func (s *Store) Get(ctx context.Context, id string) (*staccato.Doc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	ref, ok := s.index[id]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, id)
	}
	//lint:allow lockio the read lock must pin the segment file open across the ReadAt (Compact closes segments under the write lock); only the decode happens outside
	payload, err := s.readPayload(ref)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return decodeLivePayload(id, payload)
}

// readPayload copies one record payload off its segment. Callers must
// hold s.mu (read or write): the lock keeps Compact from closing the
// segment file under the ReadAt. Decoding the returned bytes is the
// caller's job, after releasing the lock.
func (s *Store) readPayload(ref recordRef) ([]byte, error) {
	seg := s.segs[ref.seg]
	if seg == nil {
		return nil, fmt.Errorf("diskstore: index references missing segment %d", ref.seg)
	}
	payload := make([]byte, ref.n)
	if _, err := seg.f.ReadAt(payload, ref.off); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return payload, nil
}

// decodeLivePayload parses one record payload and decodes its document,
// verifying the record is the live put the index claimed for id — the
// single validation both Get and GetBatch apply to bytes read off a
// segment.
func decodeLivePayload(id string, payload []byte) (*staccato.Doc, error) {
	kind, gotID, docBytes, err := parsePayload(payload)
	if err != nil {
		return nil, err
	}
	if kind != recPut || gotID != id {
		return nil, fmt.Errorf("diskstore: index for %q points at a %q record for %q", id, kindName(kind), gotID)
	}
	return store.Decode(docBytes)
}

// GetBatch returns the documents for ids, aligned with the input (nil
// for missing IDs). The read lock is taken once for the whole batch and
// the record reads are issued in (segment, offset) order, so a batch of
// candidates that landed near each other — the common case after a
// bulk ingest — becomes a near-sequential pass over the segment files
// instead of len(ids) random seeks. Decoding happens after the lock is
// released.
func (s *Store) GetBatch(ctx context.Context, ids []string) ([]*staccato.Doc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type slot struct {
		idx int // position in ids / out
		ref recordRef
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	slots := make([]slot, 0, len(ids))
	for i, id := range ids {
		if ref, ok := s.index[id]; ok {
			slots = append(slots, slot{idx: i, ref: ref})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].ref.seg != slots[b].ref.seg {
			return slots[a].ref.seg < slots[b].ref.seg
		}
		return slots[a].ref.off < slots[b].ref.off
	})
	payloads := make([][]byte, len(slots))
	for i, sl := range slots {
		var err error
		//lint:allow lockio the read lock must pin the segment files open across the batch's ReadAt pass; decoding happens below, after RUnlock
		if payloads[i], err = s.readPayload(sl.ref); err != nil {
			s.mu.RUnlock()
			return nil, err
		}
	}
	s.mu.RUnlock()

	out := make([]*staccato.Doc, len(ids))
	for i, sl := range slots {
		doc, err := decodeLivePayload(ids[sl.idx], payloads[i])
		if err != nil {
			return nil, err
		}
		out[sl.idx] = doc
	}
	return out, nil
}

// Delete removes the document with the given ID by appending a durable
// tombstone; deleting a missing ID is a no-op.
func (s *Store) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[id]; !ok {
		return nil
	}
	//lint:allow lockio the write path is serialized by design: the tombstone append+fsync must be atomic with the index removal
	return s.writeOps([]op{{kind: recDelete, id: id}})
}

// Scan visits all documents in ascending ID order. The snapshot of IDs is
// taken up front, so fn may call back into the store; a document deleted
// between snapshot and visit is skipped.
func (s *Store) Scan(ctx context.Context, fn func(doc *staccato.Doc) error) error {
	ids, err := s.ListDocIDs(ctx)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc, err := s.Get(ctx, id)
		if errors.Is(err, store.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(doc); err != nil {
			if errors.Is(err, store.ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
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

func putOp(doc *staccato.Doc) (op, error) {
	if doc == nil || doc.ID == "" {
		return op{}, fmt.Errorf("diskstore: Put: document must have a non-empty ID")
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

func parsePayload(p []byte) (kind byte, id string, doc []byte, err error) {
	if len(p) < 1 {
		return 0, "", nil, fmt.Errorf("diskstore: empty record payload")
	}
	kind = p[0]
	rest := p[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return 0, "", nil, fmt.Errorf("diskstore: corrupt record key length")
	}
	rest = rest[w:]
	id = string(rest[:n])
	doc = rest[n:]
	if kind == recDelete && len(doc) != 0 {
		return 0, "", nil, fmt.Errorf("diskstore: tombstone with %d trailing bytes", len(doc))
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

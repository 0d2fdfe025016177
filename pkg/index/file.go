package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// # On-disk format
//
// The index persists as one append-only log file (FileName) in the store
// directory: a sequence of internal/framelog frames, the same framing as
// a diskstore segment. The first frame is a header naming the format and
// the gram size; every later frame is one commit, laid out the way the
// index holds it — postings-major (a Batch). The first commit is the
// base, a snapshot of the index when the log was last written whole; the
// commits after it are the writes since:
//
//	header  = magic | uvarint q
//	commit  = kind=1 | uvarint ops | uvarint bytes | uvarint seg
//	          | uvarint nDels | nDels × (uvarint len | id)
//	          | uvarint nAdds | nAdds × (uvarint len | id | flags byte)
//	          | uvarint nGrams
//	          | nGrams × (uvarint len(suffix)·(len(prev)+1)+shared | suffix
//	                      | uvarint count
//	                      | count × uvarint ordinal delta
//	                      | count × uint16le bound)
//
// (ops, bytes, seg) is the diskstore CommitState after the commit the
// record mirrors. The flags byte is Entry.Overflow in bit 0 and Entry.Short
// in bit 1. The grams are the commit's own dictionary, strictly ascending
// and front-coded: each is the first shared bytes of prev, the gram before
// it ("" before the first), followed by suffix; shared is at most
// len(prev), so the two lengths ride one varint as a two-digit number in
// base len(prev)+1 — one byte per gram where two would be, and no pair of
// lengths the decoder would have to refuse. A gram's ordinals are positions in the commit's add
// list — Load rebases them on the ordinals the index has issued so far —
// ascending, the first as it stands and each later one as its distance from
// the one before; its bounds follow in the same order, 16-bit fixed point
// (see Quantize: rounded up when the entry was extracted, so every bound in
// the file is admissible and none needs sanitizing). A snapshot is one
// commit holding every live document, renumbered densely.
//
// The log rewrites itself. Once an append takes it past 3/2 of the
// length of the log holding just its base, and past 1 MiB (rewriteFloor),
// Writer.Append merges the index's base and delta into a new base without
// the dead ordinals and replaces the log with header and base alone, as
// WriteSnapshot does. The log, and the index in memory, thus stay within
// 3/2 of what the live documents take, and the floor keeps a small store
// from replacing its file on every synced Put.
//
// parseCommit accepts exactly what appendPayload can produce from a Batch:
// a flags byte with an unassigned bit, a gram not above its predecessor,
// an empty run, a zero delta, an ordinal outside the add list or naming an
// overflow document, a count overrunning the payload and trailing bytes
// all make the record malformed. Loading such a file adopts the first
// commit as the index's base as it was parsed — one dictionary entry per
// gram, no posting copied — and appends each later commit's runs to the
// delta: one dictionary lookup per distinct gram of a commit, no
// re-inversion.
//
// Files of an older version (magic "staccato-index v1", "v2" or "v3": the
// doc-major layouts, the last two with an 8-byte float per posting) fail header
// validation with ErrMismatch, which callers already answer with a
// transparent rebuild from a store scan — exactly how a stale index is
// handled. There is one format and one reader.
//
// The index is derived data, so its damage policy is deliberately blunt:
// Load stops at the first frame framelog reports damaged — torn or
// interior alike — truncates from there, and reports the state of the
// last intact commit; if that state no longer matches the store's, the
// caller rebuilds from a scan. Nothing in this file can lose documents;
// at worst it loses the right to skip a rebuild.

// FileName is the index log's name inside a store directory.
const FileName = "INDEX"

const (
	fileMagic = "staccato-index v4"
	recCommit = byte(1)

	flagOverflow = byte(1) << 0
	flagShort    = byte(1) << 1
)

// ErrMismatch is returned by Load when the file exists but cannot serve
// the requested gram size — a header from a different q or format.
var ErrMismatch = errors.New("index: file does not match the requested gram size")

// Writer appends commit records to the log of one index, and rewrites the
// log from that index once it has grown past its trigger.
type Writer struct {
	fsys framelog.FS
	path string
	ix   *Index
	f    framelog.File
	sync bool
	end  atomic.Int64 // the log's length: where the next record goes
}

// rewriteFloor is the length below which Append never rewrites a log;
// past it, a log is rewritten once it is longer than 3/2 of the log of its
// base alone. The ratio bounds the log, and the delta beside the base in
// memory, at 3/2 of what the live documents take; the floor keeps a small
// store from replacing its file on every synced Put. It is a variable only
// so that tests can lower it (export_test.go).
var rewriteFloor int64 = 1 << 20

// OpenAppend opens an existing index log on fsys for appending the
// commits ix applies. Only the header frame is validated against ix's
// gram size — callers must have run Load or WriteSnapshot on the file
// first (both leave it ending on a clean frame boundary), which is what
// makes skipping a second full parse here safe. withSync fsyncs after
// every Append, mirroring the store's own durability setting.
func OpenAppend(fsys framelog.FS, path string, ix *Index, withSync bool) (*Writer, error) {
	f, _, size, err := openLog(fsys, path, ix.GramSize(), os.O_RDWR)
	if err != nil {
		return nil, err
	}
	w := &Writer{fsys: fsys, path: path, ix: ix, f: f, sync: withSync}
	w.end.Store(size)
	return w, nil
}

// openLog opens the log at path on fsys with flag for a frame-by-frame
// read, consumes its first frame, which must be an intact header for
// gram size q, and reports the file's size.
func openLog(fsys framelog.FS, path string, q, flag int) (framelog.File, *framelog.Reader, int64, error) {
	f, err := fsys.OpenFile(path, flag)
	if err != nil {
		return nil, nil, 0, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	r := framelog.NewReader(io.NewSectionReader(f, 0, size), size)
	payload, err := r.Next()
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s has no valid header", ErrMismatch, path)
	}
	if gotQ, err := parseHeader(payload); err != nil || gotQ != q {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s", ErrMismatch, path)
	}
	return f, r, size, nil
}

// Append writes one commit record mirroring a store commit that applied
// adds and dels — which the Writer's index has already applied — and left
// the store at st. If that takes the log past its trigger, Append then
// rewrites the log from the index, as WriteSnapshot does. An error from
// the rewrite leaves on disk either the old log, the record included, or
// the new one. Appends are serialized by the caller.
func (w *Writer) Append(adds *Batch, dels []string, st diskstore.CommitState) error {
	frame := appendCommit(nil, adds, dels, st)
	end := w.end.Load()
	if _, err := w.f.WriteAt(frame, end); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	end += int64(len(frame))
	w.end.Store(end)
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	if end <= max(w.ix.base()*3/2, rewriteFloor) {
		return nil
	}
	size, err := writeBase(w.fsys, w.path, w.ix, st)
	if err != nil {
		return err
	}
	f, err := w.fsys.OpenFile(w.path, os.O_RDWR)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	w.f.Close() // the replaced log's handle
	w.f = f
	w.end.Store(size)
	return nil
}

// Size is the log's length in bytes. It is safe to call beside Append.
func (w *Writer) Size() int64 { return w.end.Load() }

// Close releases the log file handle.
func (w *Writer) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// WriteSnapshot rewrites ix — merges its delta into its base, without the
// dead ordinals — and atomically replaces the index log at path on fsys
// with a fresh one holding that base as a single commit at state st. A
// crash or failure at any point leaves either the old log or the new one,
// never a mix; ix is rewritten either way.
func WriteSnapshot(fsys framelog.FS, path string, ix *Index, st diskstore.CommitState) error {
	_, err := writeBase(fsys, path, ix, st)
	return err
}

// writeBase is WriteSnapshot, and reports the new log's length.
func writeBase(fsys framelog.FS, path string, ix *Index, st diskstore.CommitState) (int64, error) {
	log := ix.rewrite(st)
	if _, err := framelog.ReplaceFile(fsys, path, log); err != nil {
		return 0, fmt.Errorf("index: %w", err)
	}
	return int64(len(log)), nil
}

// rewrite merges the index's base and delta into a new base without the
// dead ordinals, swaps it in, and returns the index log that holds just
// it, stamped st. The merge and the encoding run beside lookups; only the
// swap excludes them.
func (ix *Index) rewrite(st diskstore.CommitState) []byte {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.mu.RLock()
	b := ix.merged()
	ix.mu.RUnlock()
	log := framelog.Append(nil, encodeHeader(ix.q))
	log = appendCommit(log, b, nil, st)
	t := adopt(b, int64(len(log)))
	ix.mu.Lock()
	ix.tables = t
	ix.mu.Unlock()
	return log
}

// base is the length of a log holding just ix's base.
func (ix *Index) base() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.logBase
}

// Load is LoadFS on the operating system's file system.
func Load(path string, q int) (*Index, diskstore.CommitState, error) {
	return LoadFS(framelog.OS, path, q)
}

// LoadFS reads the index log at path on fsys into a fresh Index and
// returns it with the store state of the last intact commit. The first
// commit becomes the index's base as it was parsed; every later one is
// applied to its delta. A damaged or torn tail is truncated away (the
// index is derived data; dropping records can only force a rebuild, never
// lose documents). Missing files surface as fs.ErrNotExist; a header for a
// different gram size as ErrMismatch.
//
// LoadFS first removes the staging file a crash in the middle of a
// rewrite strands beside path, which only a later successful rewrite
// would otherwise overwrite. Best effort: a read-only directory keeps its
// debris and the log still loads.
func LoadFS(fsys framelog.FS, path string, q int) (*Index, diskstore.CommitState, error) {
	_ = fsys.Remove(path + framelog.TempSuffix)
	ix := New(q)
	f, r, _, err := openLog(fsys, path, q, os.O_RDONLY)
	if err != nil {
		return ix, diskstore.CommitState{}, err
	}
	defer f.Close()
	ix.logBase = r.Offset()
	var st diskstore.CommitState
	for first := true; ; first = false {
		payload, err := r.Next()
		if err == io.EOF {
			return ix, st, nil
		}
		if err == nil {
			adds, dels, recSt, perr := parseCommit(payload)
			if perr == nil {
				// The first commit's dels name no document yet.
				if first {
					ix.tables = adopt(adds, r.Offset())
				} else {
					ix.ApplyBatch(adds, dels)
				}
				st = recSt
				continue
			}
			err = r.Bad("malformed commit record")
		}
		if !errors.As(err, new(*framelog.Damage)) {
			return ix, diskstore.CommitState{}, fmt.Errorf("index: reading %s: %w", path, err)
		}
		// Torn or interior, the policy is the same: cut the log back to
		// its intact prefix so appends resume at a frame boundary. The
		// cut opens the file a second time, for writing, so a read-only
		// log still loads; if the cut fails the file loads the same way
		// next time, so the error is ignored.
		if t, err := fsys.OpenFile(path, os.O_WRONLY); err == nil {
			_ = t.Truncate(r.Offset())
			t.Close()
		}
		return ix, st, nil
	}
}

func encodeHeader(q int) []byte {
	buf := append([]byte{}, fileMagic...)
	return binary.AppendUvarint(buf, uint64(q))
}

func parseHeader(p []byte) (int, error) {
	if len(p) < len(fileMagic) || string(p[:len(fileMagic)]) != fileMagic {
		return 0, fmt.Errorf("index: bad header magic")
	}
	q, n := binary.Uvarint(p[len(fileMagic):])
	if n <= 0 || q == 0 {
		return 0, fmt.Errorf("index: bad header gram size")
	}
	return int(q), nil
}

// appendCommit appends one commit record to buf as a frame, encoded in
// place: buf grows once, by exactly the frame's length.
func appendCommit(buf []byte, adds *Batch, dels []string, st diskstore.CommitState) []byte {
	at := len(buf)
	buf = slices.Grow(buf, framelog.HeaderSize+commitSize(adds, dels, st))[:at+framelog.HeaderSize]
	buf = appendPayload(buf, adds, dels, st)
	framelog.Seal(buf[at:])
	return buf
}

// commitSize is the length of the payload appendPayload encodes.
func commitSize(adds *Batch, dels []string, st diskstore.CommitState) int {
	n := 1 + uvarintLen(st.Ops) + uvarintLen(uint64(st.Bytes)) + uvarintLen(st.Seg) + uvarintLen(uint64(len(dels)))
	for _, id := range dels {
		n += uvarintLen(uint64(len(id))) + len(id)
	}
	n += uvarintLen(uint64(len(adds.ids)))
	for _, id := range adds.ids {
		n += uvarintLen(uint64(len(id))) + len(id) + 1
	}
	n += uvarintLen(uint64(len(adds.grams)))
	prev := ""
	for k, g := range adds.grams {
		lens, suffix := frontCode(prev, g)
		n += uvarintLen(lens) + len(suffix)
		prev = g
		run := adds.run(k)
		n += uvarintLen(uint64(len(run.ords))) + 3*len(run.ords) // a bound and, mostly, a one-byte delta each
		last := uint32(0)
		for _, o := range run.ords {
			if d := o - last; d >= 1<<7 {
				n += uvarintLen(uint64(d)) - 1
			}
			last = o
		}
	}
	return n
}

// appendPayload appends the payload of one commit record to buf.
func appendPayload(buf []byte, adds *Batch, dels []string, st diskstore.CommitState) []byte {
	buf = append(buf, recCommit)
	buf = binary.AppendUvarint(buf, st.Ops)
	buf = binary.AppendUvarint(buf, uint64(st.Bytes))
	buf = binary.AppendUvarint(buf, st.Seg)
	buf = binary.AppendUvarint(buf, uint64(len(dels)))
	for _, id := range dels {
		buf = appendString(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(adds.ids)))
	for i, id := range adds.ids {
		buf = appendString(buf, id)
		buf = append(buf, adds.flags[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(adds.grams)))
	prev := ""
	for k, g := range adds.grams {
		lens, suffix := frontCode(prev, g)
		buf = binary.AppendUvarint(buf, lens)
		buf = append(buf, suffix...)
		prev = g
		run := adds.run(k)
		buf = binary.AppendUvarint(buf, uint64(len(run.ords)))
		last := uint32(0)
		for _, o := range run.ords {
			buf = binary.AppendUvarint(buf, uint64(o-last))
			last = o
		}
		for _, b := range run.bnds {
			buf = binary.LittleEndian.AppendUint16(buf, b)
		}
	}
	return buf
}

// frontCode returns g front-coded after prev: the lengths of its suffix
// and of the prefix it shares with prev as one number, and the suffix.
func frontCode(prev, g string) (lens uint64, suffix string) {
	shared := 0
	for shared < len(prev) && shared < len(g) && prev[shared] == g[shared] {
		shared++
	}
	return uint64((len(g)-shared)*(len(prev)+1) + shared), g[shared:]
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func parseCommit(p []byte) (adds *Batch, dels []string, st diskstore.CommitState, err error) {
	bad := func() (*Batch, []string, diskstore.CommitState, error) {
		return nil, nil, diskstore.CommitState{}, fmt.Errorf("index: malformed commit record")
	}
	if len(p) < 1 || p[0] != recCommit {
		return bad()
	}
	p = p[1:]
	var head [4]uint64 // ops, bytes, seg, nDels
	var ok bool
	for i := range head {
		if head[i], p, ok = takeUvarint(p); !ok {
			return bad()
		}
	}
	st = diskstore.CommitState{Ops: head[0], Bytes: int64(head[1]), Seg: head[2]}
	nDels := head[3]
	if nDels > uint64(len(p)) {
		return bad()
	}
	for i := uint64(0); i < nDels; i++ {
		var id string
		id, p, ok = takeString(p)
		if !ok {
			return bad()
		}
		dels = append(dels, id)
	}
	nAdds, p, ok := takeUvarint(p)
	if !ok || nAdds > uint64(len(p)) {
		return bad()
	}
	adds = &Batch{ids: make([]string, nAdds), flags: make([]byte, nAdds)}
	for i := range adds.ids {
		adds.ids[i], p, ok = takeString(p)
		if !ok || len(p) < 1 || p[0]&^(flagOverflow|flagShort) != 0 {
			return bad()
		}
		adds.flags[i], p = p[0], p[1:]
	}
	nGrams, p, ok := takeUvarint(p)
	if !ok || nGrams > uint64(len(p)) {
		return bad()
	}
	adds.grams, adds.ends = make([]string, nGrams), make([]uint32, nGrams)
	// A posting is at least three bytes.
	ords, bnds := make([]uint32, 0, len(p)/3), make([]uint16, 0, len(p)/3)
	var gram []byte
	for k := range adds.grams {
		var lens, count uint64
		if lens, p, ok = takeUvarint(p); !ok || lens/uint64(len(gram)+1) > uint64(len(p)) {
			return bad()
		}
		shared, suffix := lens%uint64(len(gram)+1), lens/uint64(len(gram)+1)
		gram, p = append(gram[:shared], p[:suffix]...), p[suffix:]
		if k > 0 && string(gram) <= adds.grams[k-1] {
			return bad()
		}
		adds.grams[k] = string(gram)
		if count, p, ok = takeUvarint(p); !ok || count == 0 || count > uint64(len(p))/3 {
			return bad()
		}
		o := uint64(0)
		for i := uint64(0); i < count; i++ {
			var delta uint64
			if delta, p, ok = takeUvarint(p); !ok || (i > 0 && delta == 0) || delta >= nAdds {
				return bad()
			}
			if o += delta; o >= nAdds || adds.flags[o]&flagOverflow != 0 {
				return bad()
			}
			ords = append(ords, uint32(o))
		}
		if uint64(len(p)) < 2*count {
			return bad()
		}
		for ; count > 0; count-- {
			bnds, p = append(bnds, binary.LittleEndian.Uint16(p)), p[2:]
		}
		adds.ends[k] = uint32(len(ords))
	}
	if len(p) != 0 {
		return bad()
	}
	adds.ords, adds.bnds = ords, bnds
	return adds, dels, st, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func takeUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	return v, p[n:], true
}

func takeString(p []byte) (string, []byte, bool) {
	n, p, ok := takeUvarint(p)
	if !ok || n > uint64(len(p)) {
		return "", nil, false
	}
	return string(p[:n]), p[n:], true
}

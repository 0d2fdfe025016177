package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/internal/framelog"
)

// # On-disk format
//
// The index persists as one append-only log file (FileName) in the store
// directory: a sequence of internal/framelog frames, the same framing as
// a diskstore segment. The first frame is a header naming the format and
// the gram size; every later frame is one commit, laid out the way the
// index holds it — postings-major (a Batch):
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
// commit holding every live document, renumbered densely (Index.Snapshot).
//
// parseCommit accepts exactly what encodeCommit can produce from a Batch: a
// flags byte with an unassigned bit, a gram not above its predecessor, an
// empty run, a zero delta, an ordinal outside the add list or naming an
// overflow document, a count overrunning the payload and trailing bytes all
// make the record malformed. Loading such a file appends each run to its
// posting list: one dictionary lookup per distinct gram of a commit, no
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

// State is the diskstore CommitState a commit record was written against,
// decoupled from the diskstore package so index files can front any
// store backend. Seg (the store's active segment number) is what keeps
// the fingerprint collision-free across compactions, which reset Ops and
// Bytes but always allocate fresh, higher segment numbers.
type State struct {
	Ops   uint64
	Bytes int64
	Seg   uint64
}

// ErrMismatch is returned by Load when the file exists but cannot serve
// the requested gram size — a header from a different q or format.
var ErrMismatch = errors.New("index: file does not match the requested gram size")

// Writer appends commit records to an index log.
type Writer struct {
	f    framelog.File
	sync bool
	end  atomic.Int64 // the log's length: where the next record goes
}

// OpenAppend opens an existing index log on fsys for appending. Only the
// header frame is validated against gram size q — callers must have run
// Load or WriteSnapshot on the file first (both leave it ending on a
// clean frame boundary), which is what makes skipping a second full parse
// here safe. withSync fsyncs after every Append, mirroring the store's
// own durability setting.
func OpenAppend(fsys framelog.FS, path string, q int, withSync bool) (*Writer, error) {
	f, _, size, err := openLog(fsys, path, q, os.O_RDWR)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, sync: withSync}
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
// adds and dels and left the store at st. Appends are serialized by the
// caller.
func (w *Writer) Append(adds *Batch, dels []string, st State) error {
	frame := framelog.Append(nil, encodeCommit(adds, dels, st))
	end := w.end.Load()
	if _, err := w.f.WriteAt(frame, end); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	w.end.Store(end + int64(len(frame)))
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
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

// WriteSnapshot atomically replaces the index log at path on fsys with a
// fresh one holding ix's live documents as a single commit at state st. A
// crash or failure at any point leaves either the old log or the new one,
// never a mix.
func WriteSnapshot(fsys framelog.FS, path string, ix *Index, st State) error {
	buf := framelog.Append(nil, encodeHeader(ix.GramSize()))
	buf = framelog.Append(buf, encodeCommit(ix.Snapshot(), nil, st))
	if _, err := framelog.ReplaceFile(fsys, path, buf); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// Load is LoadFS on the operating system's file system.
func Load(path string, q int) (*Index, State, error) { return LoadFS(framelog.OS, path, q) }

// LoadFS replays the index log at path on fsys into a fresh Index and
// returns it with the State of the last intact commit. A damaged or torn
// tail is truncated away (the index is derived data; dropping records can
// only force a rebuild, never lose documents). Missing files surface as
// fs.ErrNotExist; a header for a different gram size as ErrMismatch.
func LoadFS(fsys framelog.FS, path string, q int) (*Index, State, error) {
	ix := New(q)
	f, r, _, err := openLog(fsys, path, q, os.O_RDONLY)
	if err != nil {
		return ix, State{}, err
	}
	defer f.Close()
	var st State
	for {
		payload, err := r.Next()
		if err == io.EOF {
			return ix, st, nil
		}
		if err == nil {
			adds, dels, recSt, perr := parseCommit(payload)
			if perr == nil {
				ix.ApplyBatch(adds, dels)
				st = recSt
				continue
			}
			err = r.Bad("malformed commit record")
		}
		if !errors.As(err, new(*framelog.Damage)) {
			return ix, State{}, fmt.Errorf("index: reading %s: %w", path, err)
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

func encodeCommit(adds *Batch, dels []string, st State) []byte {
	buf := []byte{recCommit}
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
		shared := 0
		for shared < len(prev) && shared < len(g) && prev[shared] == g[shared] {
			shared++
		}
		buf = binary.AppendUvarint(buf, uint64((len(g)-shared)*(len(prev)+1)+shared))
		buf = append(buf, g[shared:]...)
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

func parseCommit(p []byte) (adds *Batch, dels []string, st State, err error) {
	bad := func() (*Batch, []string, State, error) {
		return nil, nil, State{}, fmt.Errorf("index: malformed commit record")
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
	st = State{Ops: head[0], Bytes: int64(head[1]), Seg: head[2]}
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

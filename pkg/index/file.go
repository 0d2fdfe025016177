package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/paper-repo/staccato-go/internal/framelog"
)

// # On-disk format
//
// The index persists as one append-only log file (FileName) in the store
// directory: a sequence of internal/framelog frames, the same framing as
// a diskstore segment. The first frame is a header naming the format and
// the gram size; every later frame is one commit:
//
//	header  = magic | uvarint q
//	commit  = kind=1 | uvarint ops | uvarint bytes | uvarint seg
//	          | uvarint nDels | nDels × (uvarint len | id)
//	          | uvarint nAdds | nAdds × (uvarint len | id | flags byte
//	                                     | uvarint nGrams
//	                                     | nGrams × (uvarint len | gram
//	                                                 | float64le bound))
//
// (ops, bytes) is the diskstore CommitState after the commit the record
// mirrors. The flags byte is Entry.Overflow in bit 0 and Entry.Short in
// bit 1; any other bit makes the record malformed. v2 added the fixed
// 8-byte little-endian IEEE-754 probability upper bound after each gram;
// v3 added the Short bit, without which a wildcard lookup would prune
// documents it must keep. Files of an older version (magic
// "staccato-index v1" or "v2") fail header validation with ErrMismatch,
// which callers already answer with a transparent rebuild from a store
// scan — exactly how a stale index is handled. Decoding sanitizes bounds into
// [0, 1] (NaN, negative, or >1 become the always-admissible 1), so a
// decoded commit is canonical: re-encoding it reproduces it bit for bit.
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
	fileMagic = "staccato-index v3"
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
	f    *os.File
	sync bool
}

// OpenAppend opens an existing index log for appending. Only the header
// frame is validated against gram size q — callers must have run Load or
// WriteSnapshot on the file first (both leave it ending on a clean frame
// boundary), which is what makes skipping a second full parse here safe.
// withSync fsyncs after every Append, mirroring the store's own
// durability setting.
func OpenAppend(path string, q int, withSync bool) (*Writer, error) {
	if err := checkHeader(path, q); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Writer{f: f, sync: withSync}, nil
}

// checkHeader validates just the log's header frame against gram size q.
func checkHeader(path string, q int) error {
	f, _, err := openLog(path, q)
	if err != nil {
		return err
	}
	return f.Close()
}

// openLog opens the log at path for a frame-by-frame read and consumes
// its first frame, which must be an intact header for gram size q.
func openLog(path string, q int) (*os.File, *framelog.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r := framelog.NewReader(f, fi.Size())
	payload, err := r.Next()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s has no valid header", ErrMismatch, path)
	}
	if gotQ, err := parseHeader(payload); err != nil || gotQ != q {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s", ErrMismatch, path)
	}
	return f, r, nil
}

// Append writes one commit record mirroring a store commit that applied
// adds and dels and left the store at st.
func (w *Writer) Append(adds []Entry, dels []string, st State) error {
	payload := encodeCommit(adds, dels, st)
	if _, err := w.f.Write(framelog.Append(nil, payload)); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	return nil
}

// Close releases the log file handle.
func (w *Writer) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// WriteSnapshot atomically replaces the index log at path with a fresh
// one holding entries as a single commit at state st. A crash or failure
// at any point leaves either the old log or the new one, never a mix.
func WriteSnapshot(path string, ix *Index, st State) error {
	buf := framelog.Append(nil, encodeHeader(ix.GramSize()))
	buf = framelog.Append(buf, encodeCommit(ix.Entries(), nil, st))
	if _, err := framelog.ReplaceFile(path, buf); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// Load replays the index log at path into a fresh Index and returns it
// with the State of the last intact commit. A damaged or torn tail is
// truncated away (the index is derived data; dropping records can only
// force a rebuild, never lose documents). Missing files surface as
// fs.ErrNotExist; a header for a different gram size as ErrMismatch.
func Load(path string, q int) (*Index, State, error) {
	ix := New(q)
	st, err := loadInto(path, q, ix)
	return ix, st, err
}

// loadInto replays path into ix, returning the last intact commit's
// state.
func loadInto(path string, q int, ix *Index) (State, error) {
	f, r, err := openLog(path, q)
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	var st State
	for {
		payload, err := r.Next()
		if err == io.EOF {
			return st, nil
		}
		if err == nil {
			adds, dels, recSt, perr := parseCommit(payload)
			if perr == nil {
				ix.Apply(adds, dels)
				st = recSt
				continue
			}
			err = r.Bad("malformed commit record")
		}
		if !errors.As(err, new(*framelog.Damage)) {
			return State{}, fmt.Errorf("index: reading %s: %w", path, err)
		}
		// Torn or interior, the policy is the same: cut the log back to
		// its intact prefix so appends resume at a frame boundary. If the
		// truncate fails the file still loads the same way next time;
		// ignore the error.
		_ = os.Truncate(path, r.Offset())
		return st, nil
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

func encodeCommit(adds []Entry, dels []string, st State) []byte {
	buf := []byte{recCommit}
	buf = binary.AppendUvarint(buf, st.Ops)
	buf = binary.AppendUvarint(buf, uint64(st.Bytes))
	buf = binary.AppendUvarint(buf, st.Seg)
	buf = binary.AppendUvarint(buf, uint64(len(dels)))
	for _, id := range dels {
		buf = appendString(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(adds)))
	for _, e := range adds {
		buf = appendString(buf, e.ID)
		var flags byte
		if e.Overflow {
			flags |= flagOverflow
		}
		if e.Short {
			flags |= flagShort
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(len(e.Grams)))
		for i, g := range e.Grams {
			buf = appendString(buf, g)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Bound(i)))
		}
	}
	return buf
}

func parseCommit(p []byte) (adds []Entry, dels []string, st State, err error) {
	bad := func() ([]Entry, []string, State, error) {
		return nil, nil, State{}, fmt.Errorf("index: malformed commit record")
	}
	if len(p) < 1 || p[0] != recCommit {
		return bad()
	}
	p = p[1:]
	ops, p, ok := takeUvarint(p)
	if !ok {
		return bad()
	}
	bytes, p, ok := takeUvarint(p)
	if !ok {
		return bad()
	}
	seg, p, ok := takeUvarint(p)
	if !ok {
		return bad()
	}
	st = State{Ops: ops, Bytes: int64(bytes), Seg: seg}
	nDels, p, ok := takeUvarint(p)
	if !ok || nDels > uint64(len(p)) {
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
	for i := uint64(0); i < nAdds; i++ {
		var e Entry
		e.ID, p, ok = takeString(p)
		if !ok || len(p) < 1 || p[0]&^(flagOverflow|flagShort) != 0 {
			return bad()
		}
		e.Overflow, e.Short = p[0]&flagOverflow != 0, p[0]&flagShort != 0
		p = p[1:]
		var nGrams uint64
		nGrams, p, ok = takeUvarint(p)
		if !ok || nGrams > uint64(len(p)) {
			return bad()
		}
		for j := uint64(0); j < nGrams; j++ {
			var g string
			g, p, ok = takeString(p)
			if !ok || len(p) < 8 {
				return bad()
			}
			b := math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
			// Sanitize into the admissible range so decoded commits are
			// canonical (NaN or out-of-range bounds become the safe 1).
			if !(b >= 0) || b > 1 {
				b = 1
			}
			e.Grams = append(e.Grams, g)
			e.Bounds = append(e.Bounds, b)
		}
		adds = append(adds, e)
	}
	if len(p) != 0 {
		return bad()
	}
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

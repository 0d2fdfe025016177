package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"

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
// lengths the decoder would have to refuse. A gram's ordinals are
// positions in the commit's add list — the part Load makes of the commit
// keeps them, and its documents take the ordinals after those the index
// has issued so far — ascending, the first as it stands and each later
// one as its distance from the one before; its bounds follow in the same
// order, 16-bit fixed point (see Quantize: rounded up when the entry was
// extracted, so every bound in the file is admissible and none needs
// sanitizing). A snapshot is one commit holding every live document,
// renumbered densely.
//
// The index owns its log: Open loads it or writes it anew, Commit appends
// one record per store commit, Persist replaces it with a snapshot, and
// Close releases it. The log rewrites itself. Once a Commit leaves it
// past 1 MiB (rewriteFloor) and either past 3/2 of the length of the log
// holding just its base, or with more than half of the index's ordinals
// dead, Commit merges every part of the index into one without the dead
// ordinals and replaces the log with header and that base alone, as
// Persist does. The byte trigger keeps the log within 3/2 of its base
// while the writes are puts; the ordinal trigger catches deletes, whose
// records are a few bytes however many postings they kill. The floor
// keeps a small store from replacing its file on every synced Put.
//
// parseCommit accepts exactly what appendPayload can produce from a Batch:
// a flags byte with an unassigned bit or with both bits set, a gram not
// above its predecessor, an empty run, a zero delta, an ordinal outside
// the add list or naming an overflow document, a count overrunning the
// payload and trailing bytes all make the record malformed. Loading a
// file is parsing it: each commit becomes a part of the index as it was
// parsed, its ordinals local to its add list, and the parts are tiered
// once, at the end, as Commit tiers them (see Index).
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

// rewriteFloor is the length below which Commit never rewrites a log;
// past it, a log is rewritten once it is longer than 3/2 of the log of its
// base alone, or once more than half of the index's ordinals are dead.
// The two bound the log, and the parts in memory, at about twice what the
// live documents take; the floor keeps a small store from replacing its
// file on every synced Put. It is a variable only so that
// tests can lower it (export_test.go).
var rewriteFloor int64 = 1 << 20

// logFile is where a persisted index keeps its log. The Index's wmu
// guards it.
type logFile struct {
	fsys framelog.FS
	path string
	sync bool          // fsync after every record
	f    framelog.File // nil while the index is unpersisted
}

// Open returns the index of a store at state st, persisted to the log at
// path on fsys, over DefaultGramSize grams. It loads the log (see Load)
// when its last intact commit is stamped st; otherwise — the log missing,
// damaged down to its header, at another gram size or stale — it hands
// build a new, empty index to fill and persists what build leaves in it
// (see Persist). From then on every Commit appends to the log, and sync
// fsyncs after each record. Only build's error fails Open: a log that
// cannot be written leaves the index serving unpersisted, which costs
// only a rebuild at the next Open.
func Open(fsys framelog.FS, path string, st diskstore.CommitState, sync bool, build func(*Index) error) (*Index, error) {
	ix, got, end, err := load(fsys, path, DefaultGramSize)
	if err == nil && got == st {
		if f, err := fsys.OpenFile(path, os.O_RDWR); err == nil {
			ix.log = logFile{fsys: fsys, path: path, sync: sync, f: f}
			ix.logEnd.Store(end)
		}
		return ix, nil
	}
	ix = New(DefaultGramSize)
	if err := build(ix); err != nil {
		return nil, err
	}
	_ = ix.Persist(fsys, path, st, sync)
	return ix, nil
}

// Commit applies one store commit that applied adds and dels and left
// the store at st, and appends its record to the log: it publishes the
// version that follows the current one by deleting dels and then adding
// adds' documents in order, so that an ID repeated within adds ends at
// its last document. The store commit must apply in that order too, its
// deletes before its puts, as staccatodb's one write does. On an
// unpersisted index that is all Commit does.
//
// If the record takes the log past its trigger — 3/2 of its base, or
// more than half the ordinals dead — Commit then rewrites the log from
// the index, as Persist does. Any failure of the log closes it
// and is returned: the index goes on serving, unpersisted, and the log
// left on disk is the old one, the record included or not, or the new
// one.
func (ix *Index) Commit(adds *Batch, dels []string, st diskstore.CommitState) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	v := ix.cur.Load().step(ix.ord, adds, dels)
	ix.cur.Store(v)
	if ix.log.f == nil {
		return nil
	}
	frame := appendCommit(nil, adds, dels, st)
	end := ix.logEnd.Load()
	_, err := ix.log.f.WriteAt(frame, end)
	if err == nil && ix.log.sync {
		err = ix.log.f.Sync()
	}
	if err != nil {
		ix.closeLog()
		return fmt.Errorf("index: %w", err)
	}
	end += int64(len(frame))
	ix.logEnd.Store(end)
	if end <= rewriteFloor || end <= ix.logBase*3/2 && 2*(int(v.n)-v.live) <= int(v.n) {
		return nil
	}
	return ix.rewriteLog(st)
}

// Persist rewrites ix — merges every part into one, without the dead
// ordinals — and atomically replaces the log at path on fsys with one
// holding that part as a single commit at state st; every Commit appends
// to that log from then on, in place of any log ix kept before. A crash
// or failure at any point leaves either the old file or the new one,
// never a mix; ix is rewritten either way, and after a failure it serves
// on unpersisted.
func (ix *Index) Persist(fsys framelog.FS, path string, st diskstore.CommitState, sync bool) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.log.fsys, ix.log.path, ix.log.sync = fsys, path, sync
	return ix.rewriteLog(st)
}

// rewriteLog is Persist to the log ix.log names. Callers hold wmu.
func (ix *Index) rewriteLog(st diskstore.CommitState) error {
	log := ix.rewrite(st)
	_, err := framelog.ReplaceFile(ix.log.fsys, ix.log.path, log)
	var f framelog.File
	if err == nil {
		f, err = ix.log.fsys.OpenFile(ix.log.path, os.O_RDWR)
	}
	if err != nil {
		ix.closeLog()
		return fmt.Errorf("index: %w", err)
	}
	if ix.log.f != nil {
		ix.log.f.Close() // the replaced log's handle
	}
	ix.log.f = f
	ix.logEnd.Store(int64(len(log)))
	return nil
}

// Close releases the index's log. The index goes on serving, unpersisted.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.closeLog()
}

// closeLog is Close. Callers hold wmu.
func (ix *Index) closeLog() error {
	f := ix.log.f
	if f == nil {
		return nil
	}
	ix.log.f = nil
	ix.logEnd.Store(0)
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// rewrite merges every part of the index into one without the dead
// ordinals, publishes it, and returns the index log that holds just it,
// stamped st. Lookups go on reading the version they loaded throughout.
// Callers hold wmu.
func (ix *Index) rewrite(st diskstore.CommitState) []byte {
	b := ix.cur.Load().merged()
	log := framelog.Append(nil, encodeHeader(ix.q))
	log = appendCommit(log, b, nil, st)
	ix.ord, ix.logBase = make(map[string]uint32, len(b.ids)), int64(len(log))
	ix.cur.Store((&version{}).step(ix.ord, b, nil))
	return log
}

// Load reads the index log at path into a fresh Index and returns it with
// the store state of the last intact commit. Each commit becomes a part
// as it was parsed, and the parts are tiered once, at the end.
// A damaged or torn tail is truncated away (the index is derived data;
// dropping records can only force a rebuild, never lose documents).
// Missing files surface as fs.ErrNotExist; a header for a different gram
// size as ErrMismatch. The index is not persisted: Open is what appends.
func Load(path string, q int) (*Index, diskstore.CommitState, error) {
	ix, st, _, err := load(framelog.OS, path, q)
	return ix, st, err
}

// load is Load on fsys, and reports the length of the intact log, where
// the next record goes.
//
// load first removes the staging file a crash in the middle of a rewrite
// strands beside path, which only a later successful rewrite would
// otherwise overwrite. Best effort: a read-only directory keeps its
// debris and the log still loads.
func load(fsys framelog.FS, path string, q int) (*Index, diskstore.CommitState, int64, error) {
	_ = fsys.Remove(path + framelog.TempSuffix)
	ix := New(q)
	f, err := fsys.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return ix, diskstore.CommitState{}, 0, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return ix, diskstore.CommitState{}, 0, err
	}
	r := framelog.NewReader(io.NewSectionReader(f, 0, size), size)
	payload, err := r.Next()
	if err != nil {
		return ix, diskstore.CommitState{}, 0, fmt.Errorf("%w: %s has no valid header", ErrMismatch, path)
	}
	if gotQ, err := parseHeader(payload); err != nil || gotQ != q {
		return ix, diskstore.CommitState{}, 0, fmt.Errorf("%w: %s", ErrMismatch, path)
	}
	ix.logBase = r.Offset()
	// The version is built in place, and published once it is settled.
	v, st := &version{}, diskstore.CommitState{}
	for first := true; ; first = false {
		payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			adds, dels, recSt, perr := parseCommit(payload)
			if perr == nil {
				v.push(ix.ord, adds, dels)
				st = recSt
				if first {
					ix.logBase = r.Offset()
				}
				continue
			}
			err = r.Bad("malformed commit record")
		}
		if !errors.As(err, new(*framelog.Damage)) {
			return ix, diskstore.CommitState{}, 0, fmt.Errorf("index: reading %s: %w", path, err)
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
		break
	}
	// Tiered once for the whole log, each group of parts merged once.
	v.parts = tier(v.parts)
	for i, p := range v.parts {
		v.learn(p.Batch, v.parts[:i])
	}
	ix.cur.Store(v)
	return ix, st, r.Offset(), nil
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
		// Invert and BatchOf write Short only on a document that is not
		// an overflow.
		if !ok || len(p) < 1 || p[0]&^(flagOverflow|flagShort) != 0 || p[0] == flagOverflow|flagShort {
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
	// The grams are decoded back to back into text, gram k ending at
	// cut[k], and become substrings of it: one string for the record.
	var text []byte
	cut := make([]uint32, nGrams)
	prev := 0 // where the gram before starts
	for k := range adds.grams {
		var lens, count uint64
		n := uint64(len(text)-prev) + 1
		if lens, p, ok = takeUvarint(p); !ok || lens/n > uint64(len(p)) {
			return bad()
		}
		shared, suffix := int(lens%n), lens/n
		at := len(text)
		text = append(text, text[prev:prev+shared]...)
		text, p = append(text, p[:suffix]...), p[suffix:]
		if k > 0 && string(text[at:]) <= string(text[prev:at]) {
			return bad()
		}
		prev, cut[k] = at, uint32(len(text))
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
	all, from := string(text), uint32(0)
	for k, to := range cut {
		adds.grams[k], from = all[from:to], to
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

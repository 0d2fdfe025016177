package staccatodb_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/framelog"
	"github.com/paper-repo/staccato-go/pkg/index"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

const damageDocs = 8

// buildDamageStore writes damageDocs single-document commits through one
// DB, so the segment and the INDEX log are built from the same writes:
// the segment holds one frame per document, the log a header, the empty
// snapshot Open wrote, and one commit per document.
func buildDamageStore(t *testing.T) (dir string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "db")
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := docsOf(corpus(t, damageDocs, 41))
	// The last document has a reading shorter than the gram size, so the
	// last INDEX commit carries a set Short bit in its flags byte.
	docs[damageDocs-1] = &staccato.Doc{ID: "tiny", Chunks: []staccato.PathSet{{
		Alts: []staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "abcd", Prob: 0.5}}, Retained: 1,
	}}}
	for _, d := range docs {
		if err := db.Put(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// frameBounds returns the offsets at which data's frames end, starting
// with 0; data must be an undamaged frame file.
func frameBounds(t *testing.T, data []byte) []int64 {
	t.Helper()
	r := framelog.NewReader(bytes.NewReader(data), int64(len(data)))
	bounds := []int64{0}
	for {
		_, err := r.Next()
		if err == io.EOF {
			return bounds
		}
		if err != nil {
			t.Fatalf("pristine file is damaged at %d: %v", r.Offset(), err)
		}
		bounds = append(bounds, r.Offset())
	}
}

// snapshotOf is ix's whole content as bytes: the log a snapshot of it
// writes. Two indexes that issued the same ordinals to the same documents
// with the same postings — one that applied commits and one that loaded
// them, say — have equal snapshots.
func snapshotOf(t *testing.T, ix *index.Index) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), index.FileName)
	if err := ix.Persist(framelog.OS, path, diskstore.CommitState{}, false); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDamageMatrix applies one table of damage to both frame files and
// holds each package to its policy, so the two callers of the shared
// reader cannot drift. diskstore: a torn tail is truncated to the intact
// prefix and the store opens with exactly the documents in it; interior
// damage refuses to open and leaves the file untouched. index: any
// damage after an intact header loads the intact prefix — the same index
// and State as a log that simply ended there — and truncates to it; a
// damaged header is ErrMismatch and nothing else.
func TestDamageMatrix(t *testing.T) {
	last := func(b []int64) int64 { return b[len(b)-2] } // start of the last frame
	end := func(b []int64) int64 { return b[len(b)-1] }
	mid := func(b []int64) int64 { return b[len(b)/2] } // start of an interior frame
	flip := func(data []byte, at int64) []byte {
		out := bytes.Clone(data)
		out[at] ^= 0xFF
		return out
	}
	cases := []struct {
		name   string
		damage func(data []byte, b []int64) []byte
		intact func(b []int64) int64 // end of the intact prefix
		torn   bool
		header bool // the damage is in the first frame
	}{
		{"truncated header", func(d []byte, b []int64) []byte { return d[:last(b)+3] }, last, true, false},
		{"truncated payload", func(d []byte, b []int64) []byte { return d[:end(b)-5] }, last, true, false},
		{"flipped tail byte", func(d []byte, b []int64) []byte { return flip(d, end(b)-1) }, last, true, false},
		// In the INDEX log the byte after the last commit's document ID is
		// its flags byte (in the segment, just another byte of the last
		// record): the frame checksum must catch the flip in both.
		{"flipped byte after the last ID", func(d []byte, b []int64) []byte {
			return flip(d, int64(bytes.LastIndex(d, []byte("tiny"))+len("tiny")))
		}, last, true, false},
		{"flipped interior byte", func(d []byte, b []int64) []byte { return flip(d, mid(b)+framelog.HeaderSize+1) }, mid, false, false},
		{"flipped byte in the first frame", func(d []byte, b []int64) []byte { return flip(d, framelog.HeaderSize+1) },
			func(b []int64) int64 { return 0 }, false, true},
		{"zero tail", func(d []byte, b []int64) []byte { return append(bytes.Clone(d), make([]byte, 64)...) }, end, true, false},
		{"short garbage tail", func(d []byte, b []int64) []byte { return append(bytes.Clone(d), 0x13, 0x37, 0xde, 0xad, 0xbe) }, end, true, false},
		// A bad frame whose claimed extent (1 payload byte) stops short of
		// EOF, with non-zero bytes after it: not what a torn append leaves.
		{"garbage tail with bytes after it", func(d []byte, b []int64) []byte {
			return append(bytes.Clone(d), 1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x42, 0x13, 0x37)
		}, end, false, false},
	}
	for _, tc := range cases {
		t.Run("segment/"+tc.name, func(t *testing.T) {
			dir := buildDamageStore(t)
			seg := filepath.Join(dir, "seg-00000001.log")
			good, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			b := frameBounds(t, good)
			if len(b) != damageDocs+1 {
				t.Fatalf("segment holds %d frames, want one per document (%d)", len(b)-1, damageDocs)
			}
			bad := tc.damage(good, b)
			if err := os.WriteFile(seg, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := diskstore.Open(dir, diskstore.Options{})
			if !tc.torn {
				if err == nil {
					st.Close()
					t.Fatal("Open accepted interior damage")
				}
				if !strings.Contains(err.Error(), "not a torn tail") {
					t.Errorf("Open error = %v, want a refusing-to-drop-data message", err)
				}
				if after, _ := os.ReadFile(seg); !bytes.Equal(after, bad) {
					t.Error("refused Open modified the segment")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open refused a torn tail: %v", err)
			}
			defer st.Close()
			intact := tc.intact(b)
			wantDocs := 0
			for _, e := range b[1:] {
				if e <= intact {
					wantDocs++
				}
			}
			if st.Len() != wantDocs {
				t.Errorf("%d documents after recovery, want the %d in the intact prefix", st.Len(), wantDocs)
			}
			if after, _ := os.ReadFile(seg); !bytes.Equal(after, good[:intact]) {
				t.Errorf("segment is %d bytes after recovery, want the %d-byte intact prefix", len(after), intact)
			}
		})
		t.Run("index/"+tc.name, func(t *testing.T) {
			dir := buildDamageStore(t)
			path := filepath.Join(dir, index.FileName)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b := frameBounds(t, good)
			if len(b) != damageDocs+3 {
				t.Fatalf("index log holds %d frames, want header + snapshot + %d commits", len(b)-1, damageDocs)
			}
			if at := bytes.LastIndex(good, []byte("tiny")) + len("tiny"); good[at] != 1<<1 {
				t.Fatalf("the byte after the last ID is %#x, not a set Short flag; the matrix no longer covers the flags byte", good[at])
			}
			bad := tc.damage(good, b)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			got, gotState, err := index.Load(path, index.DefaultGramSize)
			if tc.header {
				if !errors.Is(err, index.ErrMismatch) {
					t.Fatalf("Load over a damaged header = %v, want ErrMismatch", err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
					t.Error("a mismatched Load modified the log")
				}
				return
			}
			if err != nil {
				t.Fatalf("Load = %v; damage past the header must load the intact prefix", err)
			}
			intact := tc.intact(b)
			clean := filepath.Join(t.TempDir(), index.FileName)
			if err := os.WriteFile(clean, good[:intact], 0o644); err != nil {
				t.Fatal(err)
			}
			want, wantState, err := index.Load(clean, index.DefaultGramSize)
			if err != nil {
				t.Fatal(err)
			}
			if gotState != wantState || got.Stats() != want.Stats() {
				t.Errorf("loaded state %+v stats %+v, want the intact prefix's %+v %+v", gotState, got.Stats(), wantState, want.Stats())
			}
			if !bytes.Equal(snapshotOf(t, got), snapshotOf(t, want)) {
				t.Error("loaded index differs from the intact prefix's")
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, good[:intact]) {
				t.Errorf("log is %d bytes after Load, want the %d-byte intact prefix", len(after), intact)
			}
		})
	}
}

// TestOpenSweepsStaleIndexTemp: a crash mid-snapshot strands INDEX.tmp,
// and nothing but Open can ever remove it. The sweep must not cost the
// index: the log is loaded as it stands, not rebuilt (a rebuild would
// rewrite it as a one-commit snapshot).
func TestOpenSweepsStaleIndexTemp(t *testing.T) {
	dir := buildDamageStore(t)
	path := filepath.Join(dir, index.FileName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.IndexDocs != damageDocs || !st.IndexPersisted {
		t.Errorf("stats after Open: %+v, want %d indexed documents, persisted", st, damageDocs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("INDEX.tmp after Open: %v, want it removed", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Error("Open rewrote the index log: it rebuilt instead of loading")
	}
}

// TestEveryFlipIsCorruptOrUnread flips every byte of every live frame of
// a small store in turn, header bytes included, and restores it before
// the next. A read that meets the flipped frame must fail with
// diskstore.ErrCorrupt; every other read, and a top-k search that does
// not read the frame, must answer exactly as before the flip. No read may
// turn the damage into a different document or probability. The store is
// not reopened: what replay makes of the damage is its own policy.
func TestEveryFlipIsCorruptOrUnread(t *testing.T) {
	ctx := context.Background()
	dir := buildDamageStore(t)
	db, err := staccatodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.Store()
	ids, err := st.ListDocIDs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scan := mustQ(query.Substring("e")) // below the gram size: reads every document
	topk := mustQ(query.Substring(corpus(t, damageDocs, 41)[0].Truth[:4]))
	topkOpts := query.SearchOptions{TopN: 2}
	wantDocs, err := st.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, stats, err := db.Search(ctx, topk, topkOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != query.ExecTopK || stats.CandidatesFetched >= len(ids) {
		t.Fatalf("top-k query ran %s fetching %d of %d documents; it no longer leaves records unread", stats.Mode, stats.CandidatesFetched, len(ids))
	}

	path := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := frameBounds(t, data); len(b) != damageDocs+1 || b[len(b)-1] != int64(len(data)) {
		t.Fatalf("segment frames end at %v; want one live frame per document filling the file", b)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(at int, b byte) {
		if _, err := f.WriteAt([]byte{b}, int64(at)); err != nil {
			t.Fatal(err)
		}
	}
	for at := range data {
		write(at, data[at]^0xFF)
		corrupt := 0
		for i, id := range ids {
			doc, err := db.Get(ctx, id)
			switch {
			case errors.Is(err, diskstore.ErrCorrupt):
				corrupt++
			case err != nil:
				t.Fatalf("byte %d: Get %s: %v", at, id, err)
			case !reflect.DeepEqual(doc, wantDocs[i]):
				t.Fatalf("byte %d: Get %s returned a different document", at, id)
			}
		}
		if corrupt != 1 {
			t.Fatalf("byte %d: %d Gets reported ErrCorrupt, want exactly the flipped record's", at, corrupt)
		}
		if _, err := st.GetBatch(ctx, ids); !errors.Is(err, diskstore.ErrCorrupt) {
			t.Fatalf("byte %d: GetBatch of every ID = %v, want ErrCorrupt", at, err)
		}
		if _, _, err := db.Search(ctx, scan, query.SearchOptions{}); !errors.Is(err, diskstore.ErrCorrupt) {
			t.Fatalf("byte %d: scan Search = %v, want ErrCorrupt", at, err)
		}
		got, _, err := db.Search(ctx, topk, topkOpts)
		if !errors.Is(err, diskstore.ErrCorrupt) && (err != nil || !reflect.DeepEqual(got, wantTopK)) {
			t.Fatalf("byte %d: top-k Search = %v, %v; want ErrCorrupt or %v", at, got, err, wantTopK)
		}
		write(at, data[at])
	}
}

package index

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// fuzzPieces are the texts fuzzed alternatives are made of: ASCII that
// repeats, multi-byte runes — 語 and 誌 share their first two bytes, so
// grams of them share their first eight — and bytes that are not UTF-8 on
// their own.
var fuzzPieces = []string{"a", "b", "ab", "é", "日", "語", "誌", "\xff", "\xc3", ""}

// fuzzDocs decodes data into a gram size and documents: IDs from a pool of
// four, so a commit holds an ID twice, up to four chunks (an empty one
// included) of up to three alternatives at fuzzed probabilities. A set
// low bit in the second byte adds stressDocs, the overflow among them.
func fuzzDocs(data []byte) (int, []*staccato.Doc) {
	take := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	q := 1 + int(take()%4)
	var docs []*staccato.Doc
	if take()&1 != 0 {
		docs = append(docs, stressDocs()...)
	}
	for len(data) > 0 && len(docs) < 24 {
		h := take()
		d := &staccato.Doc{ID: fmt.Sprintf("d%d", h>>6)}
		for c := 0; c < int(h%5); c++ {
			var ps staccato.PathSet
			for a := 0; a < int(take()%4); a++ {
				var text []byte
				for n := take() % 6; n > 0; n-- {
					text = append(text, fuzzPieces[take()%byte(len(fuzzPieces))]...)
				}
				ps.Alts = append(ps.Alts, staccato.Alt{Text: string(text), Prob: float64(take()) / 255})
			}
			d.Chunks = append(d.Chunks, ps)
		}
		docs = append(docs, d)
	}
	return q, docs
}

// referenceBatch is the Batch of docs by the reference: referenceGramMass
// per document, quantized into entries, and Invert.
func referenceBatch(docs []*staccato.Doc, q int) *Batch {
	entries := make([]Entry, len(docs))
	for i, d := range docs {
		grams, mass, ok := referenceGramMass(d, q)
		entries[i] = Entry{ID: d.ID, Overflow: !ok, Short: referenceShort(d, q)}
		if ok {
			entries[i].Grams = grams
			for _, m := range mass {
				entries[i].Bounds = append(entries[i].Bounds, Quantize(m))
			}
		}
	}
	return Invert(entries)
}

// FuzzBatchMatchesReference holds the builder to the reference bit for
// bit: random documents split into random contiguous ranges (each byte of
// split is a range's length, empty ranges included, the rest going to the
// last) must encode to the very commit record that referenceGramMass and
// Invert give, and so must BatchOf at several worker counts.
func FuzzBatchMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 0x41, 2, 3, 1, 2, 200, 1, 0, 100, 0x82, 1, 2, 2, 3, 0, 5, 255}, []byte{1})
	f.Add([]byte{0, 1, 0x43, 3, 4, 2, 0, 3, 7, 128, 2, 1, 0, 2, 64, 0, 0, 0xc2, 2, 5, 0, 1, 2, 3, 4, 50}, []byte{0, 2, 1})
	f.Add([]byte{3, 1, 0x04, 3, 5, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 99}, []byte{3, 0, 0, 1})
	f.Add([]byte{2, 0, 0x02, 2, 3, 4, 4, 4, 5, 128, 3, 4, 4, 4, 6, 128}, []byte{})
	f.Fuzz(func(t *testing.T, data, split []byte) {
		q, docs := fuzzDocs(data)
		var parts [][]*staccato.Doc
		rest := docs
		for _, n := range split {
			n := min(int(n%8), len(rest))
			parts, rest = append(parts, rest[:n]), rest[n:]
		}
		parts = append(parts, rest)

		want := encodeCommit(referenceBatch(docs, q), nil, diskstore.CommitState{})
		if got := encodeCommit(build(parts, q), nil, diskstore.CommitState{}); !bytes.Equal(got, want) {
			t.Fatalf("q=%d, %d docs in %d ranges: commit record differs from the reference\n got  %x\n want %x", q, len(docs), len(parts), got, want)
		}
		for _, workers := range []int{1, 3} {
			if got := encodeCommit(New(q).BatchOf(docs, workers), nil, diskstore.CommitState{}); !bytes.Equal(got, want) {
				t.Fatalf("q=%d, %d docs, BatchOf at %d workers: commit record differs from the reference", q, len(docs), workers)
			}
		}
	})
}

// TestBatchOfOrdersGramsPastTheirPrefix: grams longer than eight bytes
// that share their first eight — 日本語 and 日本誌, met in the wrong
// order — are ordered by the rest, as the reference orders them.
func TestBatchOfOrdersGramsPastTheirPrefix(t *testing.T) {
	d := &staccato.Doc{ID: "wide", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "日本語", Prob: 0.5}, {Text: "日本誌", Prob: 0.5}}},
		{Alts: []staccato.Alt{{Text: "x", Prob: 1}}},
	}}
	for q := 1; q <= 4; q++ {
		got, want := encodeCommit(New(q).BatchOf([]*staccato.Doc{d}, 1), nil, diskstore.CommitState{}), encodeCommit(referenceBatch([]*staccato.Doc{d}, q), nil, diskstore.CommitState{})
		if !bytes.Equal(got, want) {
			t.Errorf("q=%d: commit record differs from the reference\n got  %x\n want %x", q, got, want)
		}
	}
}

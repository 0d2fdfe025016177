package store_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// FuzzDecodeDoc drives arbitrary bytes through the document codec's
// decode path. The contract: malformed input errors, it never panics
// and never over-allocates from attacker-controlled length fields; and
// any input Decode accepts must survive an Encode→Decode round trip
// that re-encodes to identical bytes (probabilities can be NaN, so the
// stability check compares encoded bytes, not decoded structs). Decode
// must also agree with decodeReference, the one-pass decoder it
// replaced: the same inputs accepted, the same errors, and on accept
// every field equal, floats compared bit for bit.
// View.Parse, the in-place reading the engine evaluates, must accept
// exactly what Decode accepts, with the same errors, and on accept hold
// the decoded document's chunk boundaries, texts and probability bits —
// parsed into a View that already held another document, so nothing of
// a previous record may survive a Parse.
// Seed corpus: testdata/fuzz/FuzzDecodeDoc (real encoded documents and
// truncations of them), regenerated by scripts/gen_fuzz_seeds.go.
func FuzzDecodeDoc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SDOC"))
	prev, err := store.Encode(&staccato.Doc{ID: "prev", Chunks: []staccato.PathSet{
		{Alts: []staccato.Alt{{Text: "left over", Prob: 0.5}, {Text: "x", Prob: 0.5}}, Retained: 1},
		{Alts: []staccato.Alt{{Text: "tail", Prob: 1}}, Retained: 1},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := store.Decode(data)
		ref, refErr := decodeReference(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Decode error %v, reference decoder error %v", err, refErr)
		}
		var v store.View
		if err := v.Parse(prev); err != nil {
			t.Fatal(err)
		}
		if viewErr := v.Parse(data); fmt.Sprint(viewErr) != fmt.Sprint(err) {
			t.Fatalf("View.Parse error %v, Decode error %v", viewErr, err)
		}
		if err != nil {
			return // rejected, cleanly
		}
		if diff := docDiff(doc, ref); diff != "" {
			t.Fatalf("Decode and the reference decoder disagree: %s", diff)
		}
		if diff := viewDiff(&v, doc); diff != "" {
			t.Fatalf("View.Parse and Decode disagree: %s", diff)
		}
		first, err := store.Encode(doc)
		if err != nil {
			t.Fatalf("Decode accepted input but Encode of the result failed: %v", err)
		}
		again, err := store.Decode(first)
		if err != nil {
			t.Fatalf("re-Decode of a fresh Encode failed: %v", err)
		}
		second, err := store.Encode(again)
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Encode/Decode not stable:\n first  %x\n second %x", first, second)
		}
	})
}

// docDiff describes the first field in which a and b differ, or returns
// "" when they are equal. Probabilities and retained masses compare by
// their bits, so NaN equals itself and 0 differs from -0.
func docDiff(a, b *staccato.Doc) string {
	if a.ID != b.ID || a.Params != b.Params {
		return fmt.Sprintf("header %q %+v vs %q %+v", a.ID, a.Params, b.ID, b.Params)
	}
	if len(a.Chunks) != len(b.Chunks) || (a.Chunks == nil) != (b.Chunks == nil) {
		return fmt.Sprintf("%d chunks (nil %t) vs %d (nil %t)", len(a.Chunks), a.Chunks == nil, len(b.Chunks), b.Chunks == nil)
	}
	for i, ca := range a.Chunks {
		cb := b.Chunks[i]
		if math.Float64bits(ca.Retained) != math.Float64bits(cb.Retained) {
			return fmt.Sprintf("chunk %d: retained %v vs %v", i, ca.Retained, cb.Retained)
		}
		if len(ca.Alts) != len(cb.Alts) || (ca.Alts == nil) != (cb.Alts == nil) {
			return fmt.Sprintf("chunk %d: %d alternatives (nil %t) vs %d (nil %t)", i, len(ca.Alts), ca.Alts == nil, len(cb.Alts), cb.Alts == nil)
		}
		for j, aa := range ca.Alts {
			ab := cb.Alts[j]
			if aa.Text != ab.Text || math.Float64bits(aa.Prob) != math.Float64bits(ab.Prob) {
				return fmt.Sprintf("chunk %d alt %d: %q %v vs %q %v", i, j, aa.Text, aa.Prob, ab.Text, ab.Prob)
			}
		}
	}
	return ""
}

// viewDiff describes the first way v differs from doc's chunks, or
// returns "" when it holds every chunk's alternatives: the same texts,
// and probabilities with the same bits.
func viewDiff(v *store.View, doc *staccato.Doc) string {
	if len(v.Ends) != len(doc.Chunks) {
		return fmt.Sprintf("%d chunks vs %d", len(v.Ends), len(doc.Chunks))
	}
	if len(v.Spans) != 2*len(v.Probs) {
		return fmt.Sprintf("%d span offsets for %d probabilities", len(v.Spans), len(v.Probs))
	}
	lo := 0
	for c, ch := range doc.Chunks {
		hi := v.Ends[c]
		if hi-lo != len(ch.Alts) {
			return fmt.Sprintf("chunk %d: alternatives [%d, %d) vs %d", c, lo, hi, len(ch.Alts))
		}
		for j, alt := range ch.Alts {
			a := lo + j
			text := string(v.Data[v.Spans[2*a]:v.Spans[2*a+1]])
			if text != alt.Text || math.Float64bits(v.Probs[a]) != math.Float64bits(alt.Prob) {
				return fmt.Sprintf("chunk %d alt %d: %q %v vs %q %v", c, j, text, v.Probs[a], alt.Text, alt.Prob)
			}
		}
		lo = hi
	}
	if lo != len(v.Probs) {
		return fmt.Sprintf("%d alternatives past the last chunk", len(v.Probs)-lo)
	}
	return ""
}

package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// FuzzCommitRecord pins decode→encode→decode stability for the
// bound-carrying commit codec. parseCommit sanitizes bounds into [0, 1]
// (NaN, negative, and >1 collapse to the always-admissible 1), so any
// successfully decoded commit must be canonical: re-encoding it
// reproduces the accepted payload's meaning bit for bit, and re-decoding
// that yields deeply equal structures. A violation means a persisted
// index could drift across load/snapshot cycles.
func FuzzCommitRecord(f *testing.F) {
	f.Add(encodeCommit(
		[]Entry{
			{ID: "doc-1", Grams: []string{"abc", "bcd"}, Bounds: []float64{0.25, 1}},
			{ID: "doc-2", Overflow: true},
		},
		[]string{"gone"},
		State{Ops: 7, Bytes: 99, Seg: 2},
	))
	f.Add(encodeCommit(nil, nil, State{}))
	// The v3 flags byte: Short alone, Short beside Overflow, and a byte
	// with an unassigned bit, which must be rejected, not read as flags.
	flagged := encodeCommit(
		[]Entry{
			{ID: "tiny", Grams: []string{"abc"}, Bounds: []float64{0.5}, Short: true},
			{ID: "both", Overflow: true, Short: true},
		},
		nil, State{Ops: 2},
	)
	f.Add(flagged)
	unassigned := bytes.Clone(flagged)
	unassigned[bytes.Index(unassigned, []byte("tiny"))+len("tiny")] = flagShort | 1<<2
	f.Add(unassigned)
	// A payload carrying an out-of-range bound: decode must sanitize it
	// to 1, and the sanitized form must round-trip. The 8 bytes after the
	// gram text are its little-endian bound; overwrite them with NaN.
	dirty := encodeCommit([]Entry{{ID: "d", Grams: []string{"xyz"}, Bounds: []float64{0.5}}}, nil, State{Ops: 1})
	at := bytes.Index(dirty, []byte("xyz")) + len("xyz")
	binary.LittleEndian.PutUint64(dirty[at:at+8], math.Float64bits(math.NaN()))
	f.Add(dirty)
	f.Add([]byte{recCommit})
	f.Add([]byte(fileMagic))

	f.Fuzz(func(t *testing.T, payload []byte) {
		adds, dels, st, err := parseCommit(payload)
		if err != nil {
			return // malformed input rejected cleanly: nothing to round-trip
		}
		for _, e := range adds {
			for i := range e.Bounds {
				b := e.Bounds[i]
				if math.IsNaN(b) || b < 0 || b > 1 {
					t.Fatalf("decode let an unsanitized bound through: %v", b)
				}
			}
		}
		re := encodeCommit(adds, dels, st)
		adds2, dels2, st2, err := parseCommit(re)
		if err != nil {
			t.Fatalf("re-encoded commit fails to parse: %v", err)
		}
		if !reflect.DeepEqual(adds, adds2) || !reflect.DeepEqual(dels, dels2) || st != st2 {
			t.Fatalf("decode→encode→decode drift:\n first  %+v %+v %+v\n second %+v %+v %+v",
				adds, dels, st, adds2, dels2, st2)
		}
		re2 := encodeCommit(adds2, dels2, st2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding unstable:\n first  %x\n second %x", re, re2)
		}
	})
}

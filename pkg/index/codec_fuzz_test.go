package index

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// wellFormedCommits are payloads parseCommit must accept: every flags
// combination, deletions, a multi-document run that needs a real delta, a
// front-coded dictionary, and the empty commit.
func wellFormedCommits() [][]byte {
	q := Quantize
	return [][]byte{
		encodeCommit(Invert([]Entry{
			{ID: "doc-1", Grams: []string{"abc", "abd", "bcd"}, Bounds: []uint16{q(0.25), q(1), q(0)}},
			{ID: "doc-2", Overflow: true},
			{ID: "doc-3", Grams: []string{"abc", "xyz"}, Bounds: []uint16{q(0.5), q(1e-9)}},
		}), []string{"gone"}, diskstore.CommitState{Ops: 7, Bytes: 99, Seg: 2}),
		encodeCommit(Invert([]Entry{
			{ID: "tiny", Grams: []string{"abc"}, Bounds: []uint16{q(0.5)}, Short: true},
			{ID: "both", Overflow: true, Short: true},
		}), nil, diskstore.CommitState{Ops: 2}),
		encodeCommit(Invert(nil), nil, diskstore.CommitState{}),
	}
}

// malformedCommits are payloads parseCommit must refuse, each one edit away
// from something encodeCommit produces.
func malformedCommits() map[string][]byte {
	one := func(flags byte, ords []uint32, bnds []uint16) []byte {
		return encodeCommit(&Batch{
			ids: []string{"a", "b"}, flags: []byte{flags, 0},
			grams: []string{"abc"}, ends: []uint32{uint32(len(ords))}, ords: ords, bnds: bnds,
		}, nil, diskstore.CommitState{Ops: 1})
	}
	valid := one(flagShort, []uint32{0, 1}, []uint16{7, 9})
	overrun := one(0, []uint32{0, 1}, []uint16{7, 9})
	unsorted := encodeCommit(&Batch{
		ids: []string{"a"}, flags: []byte{0},
		grams: []string{"abd", "abc"}, ends: []uint32{1, 2}, ords: []uint32{0, 0}, bnds: []uint16{1, 1},
	}, nil, diskstore.CommitState{Ops: 1})
	return map[string][]byte{
		"unassigned flag bit":            one(flagShort|1<<2, []uint32{0, 1}, []uint16{7, 9}),
		"overflow and short both set":    one(flagOverflow|flagShort, []uint32{1}, []uint16{9}),
		"local ordinal out of range":     one(0, []uint32{0, 2}, []uint16{7, 9}),
		"non-ascending delta":            one(0, []uint32{1, 1}, []uint16{7, 9}),
		"posting for an overflow doc":    one(flagOverflow, []uint32{0, 1}, []uint16{7, 9}),
		"count overrunning the payload":  overrun[:len(overrun)-2], // two postings, one bound
		"empty run":                      one(0, nil, nil),
		"gram not above its predecessor": unsorted,
		"trailing bytes":                 append(bytes.Clone(valid), 0),
		"truncated":                      valid[:len(valid)-1],
		"kind byte only":                 {recCommit},
		"a header, not a commit":         []byte(fileMagic),
	}
}

func TestParseCommitAcceptsAndRejects(t *testing.T) {
	for i, payload := range wellFormedCommits() {
		if _, _, _, err := parseCommit(payload); err != nil {
			t.Errorf("well-formed commit %d refused: %v", i, err)
		}
	}
	for name, payload := range malformedCommits() {
		if adds, _, _, err := parseCommit(payload); err == nil {
			t.Errorf("%s: parseCommit accepted it as %+v", name, adds)
		}
	}
}

// FuzzCommitRecord pins decode→encode→decode stability for the commit
// codec. Every bit pattern of a 16-bit bound is a valid bound, so there is
// nothing to sanitize; what parseCommit must guarantee is that whatever it
// accepts is a Batch Commit can take — runs aligned, ascending, inside
// the add list, clear of overflow documents — and canonical: re-encoding it
// and decoding that yields deeply equal structures and the same bytes
// again. A violation means a persisted index could drift across
// load/snapshot cycles.
func FuzzCommitRecord(f *testing.F) {
	for _, payload := range wellFormedCommits() {
		f.Add(payload)
	}
	for _, payload := range malformedCommits() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		adds, dels, st, err := parseCommit(payload)
		if err != nil {
			return // malformed input rejected cleanly: nothing to round-trip
		}
		if len(adds.ids) != len(adds.flags) || len(adds.grams) != len(adds.ends) || len(adds.ords) != len(adds.bnds) ||
			len(adds.ends) > 0 && adds.ends[len(adds.ends)-1] != uint32(len(adds.ords)) {
			t.Fatalf("misaligned batch: %d ids, %d flags, %d grams, %d ends, %d ordinals, %d bounds",
				len(adds.ids), len(adds.flags), len(adds.grams), len(adds.ends), len(adds.ords), len(adds.bnds))
		}
		for k := range adds.grams {
			l := adds.run(k)
			if len(l.ords) == 0 || len(l.ords) != len(l.bnds) {
				t.Fatalf("gram %q: %d ordinals, %d bounds", adds.grams[k], len(l.ords), len(l.bnds))
			}
			for i, o := range l.ords {
				if int(o) >= len(adds.ids) || adds.flags[o]&flagOverflow != 0 || (i > 0 && o <= l.ords[i-1]) {
					t.Fatalf("gram %q: run %v is not ascending over the non-overflow documents of %d", adds.grams[k], l.ords, len(adds.ids))
				}
			}
		}
		_ = New(3).Commit(adds, dels, diskstore.CommitState{}) // must not panic

		re := encodeCommit(adds, dels, st)
		adds2, dels2, st2, err := parseCommit(re)
		if err != nil {
			t.Fatalf("re-encoded commit fails to parse: %v", err)
		}
		if !reflect.DeepEqual(adds, adds2) || !reflect.DeepEqual(dels, dels2) || st != st2 {
			t.Fatalf("decode→encode→decode drift:\n first  %+v %+v %+v\n second %+v %+v %+v",
				adds, dels, st, adds2, dels2, st2)
		}
		if re2 := encodeCommit(adds2, dels2, st2); !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding unstable:\n first  %x\n second %x", re, re2)
		}
	})
}

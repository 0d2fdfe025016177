package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

var update = flag.Bool("update", false, "rewrite the golden batch fingerprint in testdata")

// batchFingerprintFile holds the committed digest of every commit record
// TestBatchFingerprint builds.
var batchFingerprintFile = filepath.Join("testdata", "batch.sha256")

// fingerprintDocs is the corpus TestBatchFingerprint commits: 512
// error-model documents at (6,3), then gramCorpus — whose error-model
// documents reuse the first 60 IDs — then its three stress documents
// again, so a commit of 4 or more holds an ID twice.
func fingerprintDocs(t testing.TB) []*staccato.Doc {
	cases, err := testgen.ErrDocs(512, testgen.ErrModelConfig{Seed: 1}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*staccato.Doc
	for _, c := range cases {
		docs = append(docs, c.Doc)
	}
	stress := gramCorpus(t)
	docs = append(docs, stress...)
	return append(docs, stress[len(stress)-3:]...)
}

// commitsDigest hashes the commit record of every batch build makes of
// docs split into commits of size docs, at each gram size from 1 to 4.
func commitsDigest(docs []*staccato.Doc, build func([]*staccato.Doc, int) *Batch) string {
	h := sha256.New()
	for q := 1; q <= 4; q++ {
		for _, size := range []int{1, 4, 37, 256} {
			for from, n := 0, 0; from < len(docs); from, n = from+size, n+1 {
				rec := encodeCommit(build(docs[from:min(from+size, len(docs))], q), nil, diskstore.CommitState{Ops: uint64(n)})
				h.Write(binary.AppendUvarint(nil, uint64(len(rec))))
				h.Write(rec)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBatchFingerprint pins every byte of the commit records gram
// extraction produces: fingerprintDocs split into commits of 1, 4, 37 and
// 256 documents at q = 1 to 4, each commit's Batch encoded as the INDEX
// log stores it. A rewrite of extraction or inversion must leave the
// digest as it is; only an intended change of grams, bounds or layout
// regenerates it, with go test ./pkg/index -run TestBatchFingerprint -update.
func TestBatchFingerprint(t *testing.T) {
	docs := fingerprintDocs(t)
	// Every way a commit is built must give the same bytes: inline, split
	// into three ranges (whatever minRange says), and Invert of each
	// document's EntryFor.
	got := commitsDigest(docs, func(docs []*staccato.Doc, q int) *Batch { return New(q).BatchOf(docs, 1) })
	ways := map[string]func([]*staccato.Doc, int) *Batch{
		"three ranges": func(docs []*staccato.Doc, q int) *Batch {
			n := len(docs)
			return build([][]*staccato.Doc{docs[:n/4], docs[n/4 : n/2], docs[n/2:]}, q)
		},
		"Invert(EntryFor)": func(docs []*staccato.Doc, q int) *Batch {
			entries := make([]Entry, len(docs))
			for i, d := range docs {
				entries[i] = EntryFor(d, q)
			}
			return Invert(entries)
		},
	}
	for name, build := range ways {
		if other := commitsDigest(docs, build); other != got {
			t.Errorf("%s: digest %s, inline BatchOf %s", name, other, got)
		}
	}

	if *update {
		if err := os.WriteFile(batchFingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s (%d docs)", batchFingerprintFile, got, len(docs))
		return
	}
	want, err := os.ReadFile(batchFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("batch fingerprint %s, committed %s: some commit's grams, bounds, flags or layout changed (%d docs)",
			got, strings.TrimSpace(string(want)), len(docs))
	}
}

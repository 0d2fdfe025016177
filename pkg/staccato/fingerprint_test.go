package staccato_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

var update = flag.Bool("update", false, "rewrite the golden build fingerprint in testdata")

// buildFingerprintFile holds the committed Build digest.
var buildFingerprintFile = filepath.Join("testdata", "build.sha256")

// hashDoc writes every bit Build decides into h: the dial, each chunk's
// Retained bits, and each alternative's text and probability bits, in
// stored order.
func hashDoc(h hash.Hash, d *staccato.Doc) {
	var buf []byte
	buf = fmt.Appendf(buf, "%s %d %d %d\n", d.ID, d.Params.Chunks, d.Params.K, len(d.Chunks))
	for _, c := range d.Chunks {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Retained))
		buf = binary.AppendUvarint(buf, uint64(len(c.Alts)))
		for _, a := range c.Alts {
			buf = binary.AppendUvarint(buf, uint64(len(a.Text)))
			buf = append(buf, a.Text...)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.Prob))
		}
	}
	h.Write(buf)
}

// TestBuildFingerprint pins every bit staccato.Build produces: 256
// error-model documents at the benchmark's vocabulary (2000 words) are
// built at MAP, (4,2), (6,3) and (8,4), and small testgen documents at
// the full-SFST end, (1, AllPaths); the SHA-256 of every chunk's Retained
// bits and every alternative's text and probability bits must equal the
// committed digest. A rewrite of chunking or the k-best DP must leave it
// as it is; only an intended change of documents regenerates it, with
// go test ./pkg/staccato -run TestBuildFingerprint -update.
func TestBuildFingerprint(t *testing.T) {
	cases, err := testgen.ErrCorpusFSTs(256, testgen.ErrModelConfig{VocabSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type dial struct{ chunks, k int }
	dials := []dial{{staccato.MaxChunks, 1}, {4, 2}, {6, 3}, {8, 4}}
	var fsts []*fst.SFST
	for _, c := range cases {
		fsts = append(fsts, c.FST)
	}
	// The full-SFST end is only feasible on short transducers.
	for seed := int64(1); seed <= 32; seed++ {
		_, f := testgen.MustGenerate(testgen.Config{Length: 4 + int(seed%6), Seed: seed})
		fsts = append(fsts, f)
	}

	h := sha256.New()
	docs := 0
	for i, f := range fsts {
		ds := dials
		if i >= len(cases) {
			ds = []dial{{1, staccato.AllPaths}}
		}
		for _, d := range ds {
			doc, err := staccato.Build(f, fmt.Sprintf("doc-%04d", i), d.chunks, d.k)
			if err != nil {
				t.Fatalf("doc %d at (%d,%d): %v", i, d.chunks, d.k, err)
			}
			hashDoc(h, doc)
			docs++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	if *update {
		if err := os.MkdirAll(filepath.Dir(buildFingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(buildFingerprintFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s (%d docs)", buildFingerprintFile, got, docs)
		return
	}
	want, err := os.ReadFile(buildFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("build fingerprint %s, committed %s: some chunk's alternatives, probabilities or retained mass changed (%d docs)",
			got, strings.TrimSpace(string(want)), docs)
	}
}

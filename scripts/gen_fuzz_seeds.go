//go:build ignore

// gen_fuzz_seeds regenerates the checked-in seed corpora under
// */testdata/fuzz from real artifacts: an encoded document for the
// store codec, a live segment file for diskstore replay, and a live
// INDEX log for index replay — each with torn and bit-flipped variants
// so the fuzzers start at both the happy path and the recovery paths.
//
// Run from the repository root:
//
//	go run scripts/gen_fuzz_seeds.go
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/staccatodb"
	"github.com/paper-repo/staccato-go/pkg/store"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gen_fuzz_seeds:", err)
		os.Exit(1)
	}
}

func run() error {
	docs := make([]*staccato.Doc, 3)
	for i := range docs {
		_, f := testgen.MustGenerate(testgen.Config{Length: 25, Seed: int64(i + 1)})
		d, err := staccato.Build(f, fmt.Sprintf("doc-%d", i), 4, 3)
		if err != nil {
			return err
		}
		docs[i] = d
	}

	// Store codec: one encoded document.
	encoded, err := store.Encode(docs[0])
	if err != nil {
		return err
	}
	if err := writeSeeds("pkg/store/testdata/fuzz/FuzzDecodeDoc", encoded); err != nil {
		return err
	}

	// Diskstore framing: a real segment holding two puts and a tombstone.
	ctx := context.Background()
	segDir, err := os.MkdirTemp("", "fuzz-seed-seg-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(segDir)
	st, err := diskstore.Open(segDir, diskstore.Options{})
	if err != nil {
		return err
	}
	b := st.Batch()
	for _, d := range docs[:2] {
		if err := b.Put(d); err != nil {
			return err
		}
	}
	b.Delete(docs[0].ID)
	if err := b.Commit(ctx); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	segBytes, err := os.ReadFile(filepath.Join(segDir, "seg-00000001.log"))
	if err != nil {
		return err
	}
	if err := writeSeeds("pkg/store/diskstore/testdata/fuzz/FuzzSegmentReplay", segBytes); err != nil {
		return err
	}

	// Index replay: a real INDEX log written by staccatodb commits.
	dbDir, err := os.MkdirTemp("", "fuzz-seed-db-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dbDir)
	db, err := staccatodb.Open(dbDir)
	if err != nil {
		return err
	}
	if err := db.Ingest(ctx, docs); err != nil {
		return err
	}
	// A second commit whose document has a reading shorter than the gram
	// size, so the log carries a set Short bit in a flags byte.
	tiny := &staccato.Doc{ID: "tiny", Chunks: []staccato.PathSet{{
		Alts:     []staccato.Alt{{Text: "ab", Prob: 0.5}, {Text: "abcd", Prob: 0.5}},
		Retained: 1,
	}}}
	if err := db.Put(ctx, tiny); err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	idxBytes, err := os.ReadFile(filepath.Join(dbDir, "INDEX"))
	if err != nil {
		return err
	}
	return writeSeeds("pkg/index/testdata/fuzz/FuzzIndexLoad", idxBytes)
}

// writeSeeds writes the valid artifact plus a torn-tail variant and a
// bit-flipped variant into dir, in the go-fuzz corpus file format.
func writeSeeds(dir string, valid []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	torn := valid[:len(valid)-3]
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	for name, data := range map[string][]byte{
		"seed-valid":   valid,
		"seed-torn":    torn,
		"seed-bitflip": flipped,
	} {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s (%d bytes valid artifact)\n", dir, len(valid))
	return nil
}

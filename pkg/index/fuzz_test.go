package index_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/index"
)

// FuzzIndexLoad drives arbitrary bytes through INDEX-log replay. The
// index is derived data, so the contract is blunt and absolute:
// malformed bytes either fail Load (forcing the caller to rebuild from
// a store scan) or load as a truncated-but-valid log — never a panic —
// and a log Load accepted must reload to the identical state and
// posting stats (Load's tail truncation must normalize the file).
// Seed corpus: testdata/fuzz/FuzzIndexLoad (a real index log plus torn
// and bit-flipped variants), regenerated by scripts/gen_fuzz_seeds.go.
func FuzzIndexLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("staccato-index v1"))
	f.Add([]byte("staccato-index v2"))
	f.Add([]byte("staccato-index v3"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), index.FileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, st, err := index.Load(path, 3)
		if err != nil {
			return // rejected, cleanly
		}
		ix2, st2, err := index.Load(path, 3)
		if err != nil {
			t.Fatalf("reload after a successful Load failed: %v", err)
		}
		if st != st2 {
			t.Fatalf("reload changed the recovered state: %+v -> %+v", st, st2)
		}
		if ix.Stats() != ix2.Stats() {
			t.Fatalf("reload changed the index stats: %+v -> %+v", ix.Stats(), ix2.Stats())
		}
	})
}

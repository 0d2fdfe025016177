package diskstore_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// TestZeroFilledTailIsTorn is the regression test for a crash that
// journals a segment's new length but not its data blocks (ext4
// data=writeback, XFS, any preallocation; what an OS crash under NoSync
// leaves): the tail reads back as zeros. Eight zero bytes parse as a
// checksum-valid empty frame, so a zero tail of 9 bytes or more used to
// look like interior damage and Open refused the store. Every length
// must instead be truncated away like any other torn tail — while real
// interior damage still refuses and leaves the file alone.
func TestZeroFilledTailIsTorn(t *testing.T) {
	ctx := context.Background()
	const n = 10
	build := func(t *testing.T) (dir, seg string, good []byte) {
		dir = t.TempDir()
		st := openT(t, dir, diskstore.Options{})
		for i := 0; i < n; i++ {
			if err := commitPuts(ctx, st, sampleDoc(t, fmt.Sprintf("doc-%02d", i), int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		seg = lastSegment(t, dir)
		good, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		return dir, seg, good
	}
	for _, zeros := range []int{1, 7, 8, 9, 64, 4096} {
		t.Run(fmt.Sprintf("%d zero bytes", zeros), func(t *testing.T) {
			dir, seg, good := build(t)
			if err := os.WriteFile(seg, append(good, make([]byte, zeros)...), 0o644); err != nil {
				t.Fatal(err)
			}
			st := openT(t, dir, diskstore.Options{})
			if got := st.Len(); got != n {
				t.Fatalf("%d documents survive a zero tail, want %d", got, n)
			}
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, good) {
				t.Fatalf("segment is %d bytes after recovery, want it cut back to the %d good ones", len(after), len(good))
			}
		})
	}
	t.Run("interior damage before a zero tail still refuses", func(t *testing.T) {
		dir, seg, good := build(t)
		bad := append(bytes.Clone(good), make([]byte, 64)...)
		bad[20] ^= 0xFF // inside record 1
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil || !strings.Contains(err.Error(), "not a torn tail") {
			t.Fatalf("Open = %v, want a refusing-to-drop-data error", err)
		}
		if after, _ := os.ReadFile(seg); !bytes.Equal(after, bad) {
			t.Fatal("refused Open modified the segment")
		}
	})
}

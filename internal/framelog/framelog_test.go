package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// readAll drains a Reader over data, returning the intact payloads, the
// final offset and the error that ended the read.
func readAll(data []byte) (frames [][]byte, off int64, err error) {
	r := NewReader(bytes.NewReader(data), int64(len(data)))
	for {
		p, err := r.Next()
		if err != nil {
			return frames, r.Offset(), err
		}
		frames = append(frames, p)
	}
}

// threeFrames returns a 3-frame file and the offsets at which each frame
// ends (bounds[0] == 0).
func threeFrames() (data []byte, payloads [][]byte, bounds []int64) {
	payloads = [][]byte{[]byte("first"), bytes.Repeat([]byte{0xAB}, 300), []byte("third frame")}
	bounds = []int64{0}
	for _, p := range payloads {
		data = Append(data, p)
		bounds = append(bounds, int64(len(data)))
	}
	return data, payloads, bounds
}

func wantDamage(t *testing.T, when string, err error, torn bool) {
	t.Helper()
	var d *Damage
	if !errors.As(err, &d) {
		t.Fatalf("%s: error = %v, want a *Damage", when, err)
	}
	if d.Torn != torn {
		t.Fatalf("%s: Torn = %v (%s), want %v", when, d.Torn, d.What, torn)
	}
}

// TestCheck: Check vouches for exactly the frames Append writes. Every
// single-byte flip of a frame, header included, is damage, and so is a
// frame cut short or read with a byte too many.
func TestCheck(t *testing.T) {
	frame := Append(nil, []byte("some payload"))
	if err := Check(frame); err != nil {
		t.Fatalf("Check of an intact frame: %v", err)
	}
	for i := range frame {
		bad := bytes.Clone(frame)
		bad[i] ^= 0xFF
		wantDamage(t, fmt.Sprintf("byte %d flipped", i), Check(bad), false)
	}
	wantDamage(t, "short header", Check(frame[:HeaderSize-1]), false)
	wantDamage(t, "cut payload", Check(frame[:len(frame)-1]), false)
	wantDamage(t, "extra byte", Check(append(bytes.Clone(frame), 0)), false)
}

func TestRoundTrip(t *testing.T) {
	data, payloads, _ := threeFrames()
	frames, off, err := readAll(data)
	if err != io.EOF {
		t.Fatalf("clean file ended with %v, want io.EOF", err)
	}
	if off != int64(len(data)) {
		t.Errorf("Offset = %d, want the file size %d", off, len(data))
	}
	if len(frames) != len(payloads) {
		t.Fatalf("read %d frames, want %d", len(frames), len(payloads))
	}
	for i := range frames {
		if !bytes.Equal(frames[i], payloads[i]) {
			t.Errorf("frame %d = %q, want %q", i, frames[i], payloads[i])
		}
	}
	if _, off, err := readAll(nil); err != io.EOF || off != 0 {
		t.Errorf("empty file: offset %d, err %v; want 0, io.EOF", off, err)
	}
}

// TestEveryTruncationPoint cuts a 3-frame file at every length: the
// reader must yield exactly the frames that fit, stop at the last frame
// boundary, and call the remainder a torn tail.
func TestEveryTruncationPoint(t *testing.T) {
	data, _, bounds := threeFrames()
	for cut := 0; cut <= len(data); cut++ {
		wantFrames, wantOff := 0, int64(0)
		for i, b := range bounds {
			if b <= int64(cut) {
				wantFrames, wantOff = i, b
			}
		}
		frames, off, err := readAll(data[:cut])
		if len(frames) != wantFrames || off != wantOff {
			t.Fatalf("cut %d: %d frames to offset %d, want %d frames to %d", cut, len(frames), off, wantFrames, wantOff)
		}
		if int64(cut) == wantOff {
			if err != io.EOF {
				t.Fatalf("cut %d on a frame boundary: err = %v, want io.EOF", cut, err)
			}
			continue
		}
		wantDamage(t, fmt.Sprintf("cut %d", cut), err, true)
	}
}

func TestInteriorDamageIsNotTorn(t *testing.T) {
	data, _, bounds := threeFrames()
	for name, at := range map[string]int{"payload bit": HeaderSize + 2, "checksum bit": 5} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x10
		frames, off, err := readAll(bad)
		wantDamage(t, name+" in frame 1 of 3", err, false)
		if len(frames) != 0 || off != 0 {
			t.Errorf("%s: %d frames to offset %d, want none and 0", name, len(frames), off)
		}
	}
	// The same flip in the last frame reaches EOF: a torn tail.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x10
	frames, off, err := readAll(bad)
	wantDamage(t, "flipped tail byte", err, true)
	if len(frames) != 2 || off != bounds[2] {
		t.Errorf("flipped tail byte: %d frames to offset %d, want 2 to %d", len(frames), off, bounds[2])
	}
}

// TestZeroTail pins the zero-fill rule: zeros from a frame boundary to
// EOF are a torn tail at every length, including the 8 zero bytes that
// parse as a checksum-valid empty frame; one non-zero byte after them
// makes the damage interior.
func TestZeroTail(t *testing.T) {
	data, _, _ := threeFrames()
	for _, n := range []int{1, 7, 8, 9, 64, 4096, 2 << 20} {
		frames, off, err := readAll(append(bytes.Clone(data), make([]byte, n)...))
		wantDamage(t, fmt.Sprintf("%d zero bytes", n), err, true)
		if len(frames) != 3 || off != int64(len(data)) {
			t.Errorf("%d zero bytes: %d frames to offset %d, want 3 to %d", n, len(frames), off, len(data))
		}
	}
	for _, n := range []int{8, 9, 4096} {
		tail := append(make([]byte, n), 1)
		_, off, err := readAll(append(bytes.Clone(data), tail...))
		wantDamage(t, fmt.Sprintf("%d zero bytes then a non-zero one", n), err, false)
		if off != int64(len(data)) {
			t.Errorf("offset %d, want %d", off, len(data))
		}
	}
	// An empty frame with a non-zero checksum is not zero fill.
	_, _, err := readAll(append(bytes.Clone(data), 0, 0, 0, 0, 1, 2, 3, 4, 0, 0))
	wantDamage(t, "empty frame with a checksum", err, false)
}

// TestHugeClaimedLengthAllocatesNothing: a length field is checked
// against what the file can hold before any buffer is sized from it.
func TestHugeClaimedLengthAllocatesNothing(t *testing.T) {
	data := make([]byte, 20)
	data[3] = 0x80 // little-endian 2 GiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames, off, err := readAll(data)
	runtime.ReadMemStats(&after)
	wantDamage(t, "2 GiB claim on a 20-byte file", err, true)
	if len(frames) != 0 || off != 0 {
		t.Errorf("%d frames to offset %d, want none and 0", len(frames), off)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("reading a 20-byte file allocated %d bytes", got)
	}
	// The other length guard — over the 1 GiB payload limit yet inside
	// the file — needs a >1 GiB file, so no test reaches it.
}

func TestBadClassifiesLikeNext(t *testing.T) {
	data, _, bounds := threeFrames()
	for reject, wantTorn := range map[int]bool{1: false, 2: false, 3: true} {
		r := NewReader(bytes.NewReader(data), int64(len(data)))
		for i := 0; i < reject; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		d := r.Bad("caller cannot parse it")
		if d.Torn != wantTorn || d.What != "caller cannot parse it" {
			t.Errorf("rejecting frame %d: %+v, want Torn=%v", reject, d, wantTorn)
		}
		if r.Offset() != bounds[reject-1] {
			t.Errorf("rejecting frame %d: Offset = %d, want its start %d", reject, r.Offset(), bounds[reject-1])
		}
	}
}

func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+TempSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	for _, content := range []string{"old", "new content"} {
		renamed, err := ReplaceFile(OS, path, []byte(content))
		if !renamed || err != nil {
			t.Fatalf("ReplaceFile = %v, %v", renamed, err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
		if left := tempFiles(t, dir); len(left) != 0 {
			t.Fatalf("temp files left behind: %v", left)
		}
	}
}

// TestReplaceFileFailuresLeaveNoDebris drives every pre-rename failure a
// test can stage without fault injection: renamed is false, the target
// keeps its old content, and no temp file survives.
func TestReplaceFileFailuresLeaveNoDebris(t *testing.T) {
	t.Run("temp cannot be opened", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "INDEX")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path+TempSuffix, 0o755); err != nil { // a directory: O_WRONLY open fails
			t.Fatal(err)
		}
		renamed, err := ReplaceFile(OS, path, []byte("new"))
		if renamed || err == nil {
			t.Fatalf("ReplaceFile = %v, %v; want false and an error", renamed, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "old" {
			t.Errorf("content = %q, want the old content", got)
		}
		if left := tempFiles(t, dir); len(left) != 0 {
			t.Errorf("temp files left behind: %v", left)
		}
	})
	t.Run("rename fails", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "INDEX")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil { // a file cannot replace a non-empty directory
			t.Fatal(err)
		}
		renamed, err := ReplaceFile(OS, path, []byte("new"))
		if renamed || err == nil {
			t.Fatalf("ReplaceFile = %v, %v; want false and an error", renamed, err)
		}
		if left := tempFiles(t, dir); len(left) != 0 {
			t.Errorf("temp files left behind: %v", left)
		}
	})
	t.Run("directory missing", func(t *testing.T) {
		renamed, err := ReplaceFile(OS, filepath.Join(t.TempDir(), "gone", "INDEX"), []byte("new"))
		if renamed || !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("ReplaceFile = %v, %v; want false and ErrNotExist", renamed, err)
		}
	})
}

// corpusSeeds returns the byte strings of another fuzz target's seed
// corpus (Go's "go test fuzz v1" files holding one []byte argument), so
// the frame reader is seeded with real segments and index logs without
// keeping a second copy of them.
func corpusSeeds(t testing.TB, dir string) [][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no seed corpus in %s (err=%v)", dir, err)
	}
	var seeds [][]byte
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a single-[]byte corpus file: %v", name, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzFrameReader drives arbitrary bytes through the one frame reader
// both storage formats replay with. It never panics, never sizes a
// buffer past the file, ends in io.EOF or a *Damage with Offset inside
// the file, and the prefix it vouched for re-reads to the same frames
// and a clean end — which is what makes "truncate to Offset" a repair.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 9))
	for _, dir := range []string{
		"../../pkg/store/diskstore/testdata/fuzz/FuzzSegmentReplay",
		"../../pkg/index/testdata/fuzz/FuzzIndexLoad",
	} {
		for _, seed := range corpusSeeds(f, dir) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, off, err := readAll(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("Offset %d outside a %d-byte file", off, len(data))
		}
		var d *Damage
		switch {
		case err == io.EOF:
			if off != int64(len(data)) {
				t.Fatalf("clean end at offset %d of %d", off, len(data))
			}
		case !errors.As(err, &d):
			t.Fatalf("an in-memory read ended with %v, want io.EOF or a *Damage", err)
		}
		var total int64
		for _, p := range frames {
			if len(p) == 0 {
				t.Fatal("Next returned an empty payload")
			}
			total += HeaderSize + int64(len(p))
		}
		if total != off {
			t.Fatalf("frames account for %d bytes, Offset is %d", total, off)
		}
		again, off2, err := readAll(data[:off])
		if err != io.EOF || off2 != off || len(again) != len(frames) {
			t.Fatalf("re-reading the intact prefix: %d frames to %d, err %v; want %d frames to %d, io.EOF",
				len(again), off2, err, len(frames), off)
		}
		for i := range frames {
			if !bytes.Equal(frames[i], again[i]) {
				t.Fatalf("frame %d changed on re-read", i)
			}
		}
	})
}

// Package framelog is the crash-safe file layer under diskstore's
// segments and manifest and under the index log: the one place that
// writes a checksummed frame, reads one back, decides what a crash may
// have destroyed, and replaces a file atomically.
//
// # Frame
//
//	uint32le len(payload) | uint32le crc32-IEEE(payload) | payload
//
// Frames are only ever appended, so a crash can damage nothing but the
// end of a file. Neither caller ever writes an empty payload.
//
// # Damage
//
// Reader.Next stops at the first frame it cannot vouch for and reports a
// *Damage. A partial header, a length that runs past the end of the file
// or over the payload limit, a zero length, a checksum mismatch, and a
// checksum-valid payload the caller rejects through Reader.Bad are all
// the same class of damage, classified by one rule: it is Torn — what a
// crash mid-append leaves, safe to truncate away — when the bad frame's
// claimed extent reaches the end of the file, or when every byte from
// its start to the end of the file is zero (a file length that was
// journaled while its data blocks were not). Anything else is interior
// damage: bytes follow it that no interrupted append can explain.
// What to do about either class is the caller's policy.
//
// # File systems
//
// Every file call goes through an FS: OS, or NewMemFS's in-memory map,
// which gives an in-memory store the same framing, replay and commit
// path as one on disk.
package framelog

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// HeaderSize is the length and checksum that precede every payload.
	HeaderSize = 8
	// TempSuffix names ReplaceFile's staging file next to its target, for
	// callers that sweep the debris of a crash mid-replace.
	TempSuffix = ".tmp"

	maxPayload = 1 << 30 // a larger claimed length is damage, never an allocation
	readBuffer = 1 << 20 // replay streams through this much; it never slurps a file
)

// Append appends payload to buf as one frame.
func Append(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// Damage describes the first frame a Reader could not vouch for.
type Damage struct {
	What string // "checksum mismatch", or the caller's reason given to Bad
	Torn bool   // a crash mid-append explains it; see the package comment
}

func (d *Damage) Error() string { return "framelog: damaged frame: " + d.What }

// Reader streams the frames of a file of known size.
type Reader struct {
	r     *bufio.Reader
	size  int64
	off   int64 // end of the intact prefix
	start int64 // start of the frame Next last returned
}

// NewReader reads frames from r, which must be positioned at the start
// of a file holding size bytes.
func NewReader(r io.Reader, size int64) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, int(min(size, readBuffer))), size: size}
}

// Offset is the end of the intact prefix: every frame before it was
// returned by Next and not rejected by Bad. After damage it is where to
// truncate.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next intact payload, io.EOF at a clean end of file, a
// *Damage for a frame it cannot vouch for, or the underlying read error.
// After any error the Reader is finished.
func (r *Reader) Next() ([]byte, error) {
	rest := r.size - r.off
	if rest == 0 {
		return nil, io.EOF
	}
	if rest < HeaderSize {
		return nil, &Damage{What: "partial frame header", Torn: true}
	}
	var hdr [HeaderSize]byte
	if err := r.read(hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	room := rest - HeaderSize
	// Every length check comes before the allocation: a claimed length is
	// never trusted for more than the file can hold.
	switch {
	case n > room:
		return nil, &Damage{What: "frame runs past the end of the file", Torn: true}
	case n > maxPayload:
		return nil, &Damage{What: "frame length over the payload limit"}
	case n == 0:
		// Eight zero bytes are a checksum-valid empty frame (crc32 of
		// nothing is 0), which is why a zero-filled tail has to be caught
		// here: this is the only damage whose own bytes can all be zero.
		return nil, &Damage{What: "empty frame", Torn: room == 0 || (sum == 0 && r.zeros(room))}
	}
	payload := make([]byte, n)
	if err := r.read(payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, &Damage{What: "checksum mismatch", Torn: n == room}
	}
	r.start = r.off
	r.off += HeaderSize + n
	return payload, nil
}

// Bad rejects the frame Next just returned — its checksum held but the
// caller cannot parse its content — and classifies it by the same rule
// as Next's own damage. Offset moves back to the frame's start and the
// Reader is finished. (Next never returns an empty payload, so the
// frame's length field is not zero and the all-zero clause cannot apply.)
func (r *Reader) Bad(what string) *Damage {
	d := &Damage{What: what, Torn: r.off == r.size}
	r.off = r.start
	return d
}

func (r *Reader) read(p []byte) error {
	_, err := io.ReadFull(r.r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // size promised these bytes
	}
	return err
}

// zeros reports whether the next n bytes are all zero.
func (r *Reader) zeros(n int64) bool {
	for ; n > 0; n-- {
		if b, err := r.r.ReadByte(); err != nil || b != 0 {
			return false
		}
	}
	return true
}

// ReplaceFile atomically replaces path on fsys with data: write
// path+TempSuffix, fsync it, rename it over path, fsync the directory. A
// crash at any point leaves the old content or the new, never a mix.
// renamed reports whether the rename happened: when false, path is
// untouched and the temp file has been removed; when true with a non-nil
// error, the new content is in place but its directory entry may not be
// durable yet.
func ReplaceFile(fsys FS, path string, data []byte) (renamed bool, err error) {
	tmp := path + TempSuffix
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err == nil {
		if _, err = f.WriteAt(data, 0); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp) // the one pre-rename failure path: no debris, path untouched
		return false, err
	}
	return true, fsys.SyncDir(filepath.Dir(path))
}

package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Binary codec for Staccato documents. Layout (all integers unsigned
// varints, all floats IEEE-754 little-endian bits):
//
//	magic "SDOC" | version | id | params.chunks | params.k
//	numChunks | for each chunk:
//	    retained float64 | numAlts | for each alt: text | prob float64
//
// Strings are length-prefixed byte slices. The version byte lets a later
// PR evolve the layout (e.g. delta-coded alternatives or compression)
// while still reading existing stores.

var codecMagic = [4]byte{'S', 'D', 'O', 'C'}

const codecVersion = 1

// Encode serializes doc to its binary form.
func Encode(doc *staccato.Doc) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("store: Encode: nil doc")
	}
	buf := make([]byte, 0, 64+32*len(doc.Chunks))
	buf = append(buf, codecMagic[:]...)
	buf = append(buf, codecVersion)
	buf = appendString(buf, doc.ID)
	buf = binary.AppendUvarint(buf, uint64(doc.Params.Chunks))
	buf = binary.AppendUvarint(buf, uint64(doc.Params.K))
	buf = binary.AppendUvarint(buf, uint64(len(doc.Chunks)))
	for _, ch := range doc.Chunks {
		buf = appendFloat(buf, ch.Retained)
		buf = binary.AppendUvarint(buf, uint64(len(ch.Alts)))
		for _, alt := range ch.Alts {
			buf = appendString(buf, alt.Text)
			buf = appendFloat(buf, alt.Prob)
		}
	}
	return buf, nil
}

// Decode deserializes a document previously produced by Encode. It walks
// the record twice: a validating pass counts the alternatives, then a
// filling pass builds the document from one string copy of the chunk
// bytes — every Alt.Text is a substring of it — and two exactly-sized
// backing arrays, one for the chunks and one for all their alternatives.
// With the document itself and its ID, that is five allocations however
// many alternatives it holds. The ID is copied on its own, so a result
// that keeps only the ID does not pin the record.
func Decode(data []byte) (*staccato.Doc, error) {
	d := decoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != codecMagic {
		return nil, fmt.Errorf("store: Decode: bad magic %q", magic)
	}
	if v := d.byte(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("store: Decode: unsupported version %d", v)
	}
	doc := &staccato.Doc{}
	doc.ID = string(d.text())
	doc.Params.Chunks = int(d.uvarint())
	doc.Params.K = int(d.uvarint())
	numChunks := d.uvarint()
	if d.err == nil && numChunks > uint64(len(data)) {
		return nil, fmt.Errorf("store: Decode: implausible chunk count %d", numChunks)
	}
	body := d.buf
	var numAlts uint64
	for i := uint64(0); i < numChunks && d.err == nil; i++ {
		d.float()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(data)) {
			return nil, fmt.Errorf("store: Decode: implausible alt count %d", n)
		}
		numAlts += n
		for j := uint64(0); j < n && d.err == nil; j++ {
			d.text()
			d.float()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: Decode: %d trailing bytes", len(d.buf))
	}

	// The body is valid, so every count is bounded by its length and the
	// filling pass needs no checks.
	if numChunks == 0 {
		return doc, nil
	}
	text := string(body)
	doc.Chunks = make([]staccato.PathSet, numChunks)
	alts := make([]staccato.Alt, numAlts)
	d = decoder{buf: body}
	for i := range doc.Chunks {
		ch := &doc.Chunks[i]
		ch.Retained = d.float()
		if n := int(d.uvarint()); n > 0 {
			ch.Alts, alts = alts[:n:n], alts[n:]
		}
		for j := range ch.Alts {
			n := int(d.uvarint())
			at := len(body) - len(d.buf)
			d.buf = d.buf[n:]
			ch.Alts[j] = staccato.Alt{Text: text[at : at+n], Prob: d.float()}
		}
	}
	return doc, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// decoder consumes a byte slice with a latched error, so the happy path
// reads linearly without per-field error checks.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("store: Decode: truncated input")
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return make([]byte, n)
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte { return d.bytes(1)[0] }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// text reads a length-prefixed byte string, aliasing the input.
func (d *decoder) text() []byte {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	return d.bytes(int(n))
}

func (d *decoder) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.bytes(8)))
}

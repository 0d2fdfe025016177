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
// the record twice: the validating pass View.Parse runs counts the
// alternatives, then a filling pass builds the document from one string
// copy of the chunk bytes — every Alt.Text is a substring of it — and two
// exactly-sized backing arrays, one for the chunks and one for all their
// alternatives. With the document itself and its ID, that is five
// allocations however many alternatives it holds. The ID is copied on
// its own, so a result that keeps only the ID does not pin the record.
func Decode(data []byte) (*staccato.Doc, error) {
	h, err := parse(data, nil)
	if err != nil {
		return nil, err
	}
	doc := &staccato.Doc{ID: string(h.id), Params: h.params}
	// The body is valid, so every count is bounded by its length and the
	// filling pass needs no checks.
	if h.numChunks == 0 {
		return doc, nil
	}
	text := string(h.body)
	doc.Chunks = make([]staccato.PathSet, h.numChunks)
	alts := make([]staccato.Alt, h.numAlts)
	d := decoder{buf: h.body}
	for i := range doc.Chunks {
		ch := &doc.Chunks[i]
		ch.Retained = d.float()
		if n := int(d.uvarint()); n > 0 {
			ch.Alts, alts = alts[:n:n], alts[n:]
		}
		for j := range ch.Alts {
			n := int(d.uvarint())
			at := len(h.body) - len(d.buf)
			d.buf = d.buf[n:]
			ch.Alts[j] = staccato.Alt{Text: text[at : at+n], Prob: d.float()}
		}
	}
	return doc, nil
}

// View is an encoded document's alternatives read in place: their texts
// stay spans of the record bytes, so evaluating a stored document needs
// no staccato.Doc. A View holds no pointers besides its four slices,
// which Parse reuses, so one View serves any number of records without
// allocating once it has grown to the largest.
type View struct {
	// Data is the bytes the view was parsed from; Spans index into it.
	Data []byte
	// Spans holds two offsets per alternative, in document order:
	// alternative a's text is Data[Spans[2a]:Spans[2a+1]].
	Spans []int
	// Probs holds each alternative's probability, in the same order.
	Probs []float64
	// Ends holds one entry per chunk, one past the index of its last
	// alternative: chunk c's alternatives are Ends[c-1] (0 for the first
	// chunk) up to Ends[c].
	Ends []int
}

// Parse points v at data, an encoded document, in the one validating
// pass Decode also runs: it accepts exactly the records Decode accepts,
// with the same errors. v aliases data, so it is valid only while data
// is unchanged; after an error its contents are unspecified.
func (v *View) Parse(data []byte) error {
	v.Data, v.Spans, v.Probs, v.Ends = data, v.Spans[:0], v.Probs[:0], v.Ends[:0]
	_, err := parse(data, v)
	return err
}

// header is what the validating pass learns about a valid record: its
// header fields, how many chunks and alternatives it holds, and the
// bytes of its chunks.
type header struct {
	id                 []byte
	params             staccato.Params
	numChunks, numAlts uint64
	body               []byte
}

// parse validates data as an encoded document; when v is non-nil it
// also appends every alternative's span and probability and every
// chunk's end to v. It is the only place a record's validity is
// decided, for Decode and View alike.
func parse(data []byte, v *View) (header, error) {
	d := decoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != codecMagic {
		return header{}, fmt.Errorf("store: Decode: bad magic %q", magic)
	}
	if ver := d.byte(); d.err == nil && ver != codecVersion {
		return header{}, fmt.Errorf("store: Decode: unsupported version %d", ver)
	}
	var h header
	h.id = d.text()
	h.params.Chunks = int(d.uvarint())
	h.params.K = int(d.uvarint())
	h.numChunks = d.uvarint()
	if d.err == nil && h.numChunks > uint64(len(data)) {
		return header{}, fmt.Errorf("store: Decode: implausible chunk count %d", h.numChunks)
	}
	h.body = d.buf
	for i := uint64(0); i < h.numChunks && d.err == nil; i++ {
		d.float()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(data)) {
			return header{}, fmt.Errorf("store: Decode: implausible alt count %d", n)
		}
		h.numAlts += n
		for j := uint64(0); j < n && d.err == nil; j++ {
			text := d.text()
			p := d.float()
			if v != nil && d.err == nil {
				end := len(data) - len(d.buf) - 8
				v.Spans = append(v.Spans, end-len(text), end)
				v.Probs = append(v.Probs, p)
			}
		}
		if v != nil {
			v.Ends = append(v.Ends, len(v.Probs))
		}
	}
	if d.err != nil {
		return header{}, d.err
	}
	if len(d.buf) != 0 {
		return header{}, fmt.Errorf("store: Decode: %d trailing bytes", len(d.buf))
	}
	return h, nil
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

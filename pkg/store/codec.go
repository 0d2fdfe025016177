package store

import (
	"encoding/binary"
	"errors"
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
	body := h.body
	text := string(body)
	doc.Chunks = make([]staccato.PathSet, h.numChunks)
	alts := make([]staccato.Alt, h.numAlts)
	at := 0
	for i := range doc.Chunks {
		ch := &doc.Chunks[i]
		ch.Retained = float(body, at)
		var n uint64
		if n, at = uvarint(body, at+8); n > 0 {
			ch.Alts, alts = alts[:n:n], alts[n:]
		}
		for j := range ch.Alts {
			if body[at] < 0x80 {
				n, at = uint64(body[at]), at+1
			} else {
				n, at = uvarint(body, at)
			}
			end := at + int(n)
			ch.Alts[j] = staccato.Alt{Text: text[at:end], Prob: float(body, end)}
			at = end + 8
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
// decided, for Decode and View alike. It reads data at an offset, each
// field's bounds checked once, and returns at the first fault.
func parse(data []byte, v *View) (header, error) {
	if len(data) < len(codecMagic) {
		return header{}, errTruncated
	}
	if magic := [4]byte(data); magic != codecMagic {
		return header{}, fmt.Errorf("store: Decode: bad magic %q", magic)
	}
	if len(data) == len(codecMagic) {
		return header{}, errTruncated
	}
	if ver := data[4]; ver != codecVersion {
		return header{}, fmt.Errorf("store: Decode: unsupported version %d", ver)
	}
	var h header
	n, at := uvarint(data, 5)
	if at < 0 || n > uint64(len(data)-at) {
		return header{}, errTruncated
	}
	h.id, at = data[at:at+int(n)], at+int(n)
	var chunks, k uint64
	if chunks, at = uvarint(data, at); at < 0 {
		return header{}, errTruncated
	}
	if k, at = uvarint(data, at); at < 0 {
		return header{}, errTruncated
	}
	if h.numChunks, at = uvarint(data, at); at < 0 {
		return header{}, errTruncated
	}
	h.params = staccato.Params{Chunks: int(chunks), K: int(k)}
	if h.numChunks > uint64(len(data)) {
		return header{}, fmt.Errorf("store: Decode: implausible chunk count %d", h.numChunks)
	}
	h.body = data[at:]
	// The view's slices grow in locals, not through v, and are handed back
	// at the end.
	var spans, ends []int
	var probs []float64
	if v != nil {
		spans, probs, ends = v.Spans, v.Probs, v.Ends
	}
	for range h.numChunks {
		if len(data)-at < 8 { // the retained mass
			return header{}, errTruncated
		}
		if at += 8; at < len(data) && data[at] < 0x80 { // one byte, like most counts and lengths
			n, at = uint64(data[at]), at+1
		} else if n, at = uvarint(data, at); at < 0 {
			return header{}, errTruncated
		}
		if n > uint64(len(data)) {
			return header{}, fmt.Errorf("store: Decode: implausible alt count %d", n)
		}
		h.numAlts += n
		for range n {
			var size uint64
			if at < len(data) && data[at] < 0x80 {
				size, at = uint64(data[at]), at+1
			} else if size, at = uvarint(data, at); at < 0 {
				return header{}, errTruncated
			}
			// The text, then its probability.
			if rest := uint64(len(data) - at); size > rest || rest-size < 8 {
				return header{}, errTruncated
			}
			end := at + int(size)
			if v != nil {
				spans = append(spans, at, end)
				probs = append(probs, float(data, end))
			}
			at = end + 8
		}
		if v != nil {
			ends = append(ends, len(probs))
		}
	}
	if at != len(data) {
		return header{}, fmt.Errorf("store: Decode: %d trailing bytes", len(data)-at)
	}
	if v != nil {
		v.Spans, v.Probs, v.Ends = spans, probs, ends
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

// errTruncated is every read past the end of a record, and every varint
// that runs past it or past 64 bits.
var errTruncated = errors.New("store: Decode: truncated input")

// uvarint returns the unsigned varint at data[at:] and the offset past
// it; the offset is negative if the varint runs past data or past 64
// bits. The loops over chunks and alternatives read a one-byte varint,
// most of a record's, in line, and call it only for a longer one: with
// the call in it, it is too large to be inlined.
func uvarint(data []byte, at int) (uint64, int) {
	if at >= len(data) {
		return 0, -1
	}
	x, n := binary.Uvarint(data[at:])
	if n <= 0 {
		return 0, -1
	}
	return x, at + n
}

// float returns the little-endian float64 at data[at:], which must hold
// 8 bytes.
func float(data []byte, at int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
}

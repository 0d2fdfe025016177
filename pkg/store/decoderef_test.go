package store_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// decodeReference is the straightforward one-pass codec decoder Decode
// replaced: one string per alternative and slices grown by append. It
// is kept as the oracle FuzzDecodeDoc holds Decode to, so it must stay
// independent of the product decoder — it carries its own refDecoder.
func decodeReference(data []byte) (*staccato.Doc, error) {
	d := refDecoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != [4]byte{'S', 'D', 'O', 'C'} {
		return nil, fmt.Errorf("store: Decode: bad magic %q", magic)
	}
	if v := d.byte(); d.err == nil && v != 1 {
		return nil, fmt.Errorf("store: Decode: unsupported version %d", v)
	}
	doc := &staccato.Doc{}
	doc.ID = d.string()
	doc.Params.Chunks = int(d.uvarint())
	doc.Params.K = int(d.uvarint())
	numChunks := d.uvarint()
	if d.err == nil && numChunks > uint64(len(data)) {
		return nil, fmt.Errorf("store: Decode: implausible chunk count %d", numChunks)
	}
	for i := uint64(0); i < numChunks && d.err == nil; i++ {
		var ch staccato.PathSet
		ch.Retained = d.float()
		numAlts := d.uvarint()
		if d.err == nil && numAlts > uint64(len(data)) {
			return nil, fmt.Errorf("store: Decode: implausible alt count %d", numAlts)
		}
		for j := uint64(0); j < numAlts && d.err == nil; j++ {
			ch.Alts = append(ch.Alts, staccato.Alt{Text: d.string(), Prob: d.float()})
		}
		doc.Chunks = append(doc.Chunks, ch)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: Decode: %d trailing bytes", len(d.buf))
	}
	return doc, nil
}

type refDecoder struct {
	buf []byte
	err error
}

func (d *refDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("store: Decode: truncated input")
	}
}

func (d *refDecoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return make([]byte, n)
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *refDecoder) byte() byte { return d.bytes(1)[0] }

func (d *refDecoder) uvarint() uint64 {
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

func (d *refDecoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *refDecoder) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.bytes(8)))
}

package server

import (
	"bytes"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// readIngest decodes an ingest body in one pass over its bytes: a
// recursive descent over the fixed ingestRequest shape — a request holds
// Docs, a Doc its Params and PathSets, a PathSet its Alts — with no
// reflection and no separate scan. ok is false for every body the reader
// does not take, and the handler then decodes it with decodeJSON, whose
// statuses and error texts are the contract. The reader therefore only
// takes what it can decode to exactly decodeJSON's value: every key
// spelled as its JSON tag, each at most once, no null, and numbers that
// strconv parses into their field. Everything else — a key matched only
// case-insensitively, a repeated key, null, a number out of range, an
// unknown field, malformed JSON, trailing data — falls back.
// FuzzIngestDecodeMatchesJSON holds the two to the same values.
//
// A Doc costs five allocations: the Doc, its ID, its chunk list, one
// array holding all of its alternatives, and one string holding all of
// their texts. The ID is always a copy of its own: the store and the
// index keep IDs, and a substring of the body would pin all of it.
func readIngest(body []byte) (req ingestRequest, ok bool) {
	r := ingestReader{b: body}
	r.request(&req)
	if r.failed {
		return ingestRequest{}, false
	}
	return req, true
}

// ingestReader is readIngest's cursor over the body, plus the parts of
// the document being read, reused from one document to the next. The
// first thing the reader does not take sets failed, and from then on
// every member and element reads as absent, so the descent unwinds.
type ingestReader struct {
	b      []byte
	pos    int
	failed bool

	id     []byte      // the document's ID, unquoted
	text   []byte      // the texts of all its alternatives, back to back
	alts   []altSpan   // its alternatives, in order
	chunks []chunkSpan // its chunks, in order
}

// altSpan is one alternative read so far: its text is text[from:to].
type altSpan struct {
	from, to int
	prob     float64
}

// chunkSpan is one chunk read so far: its alternatives are alts[from:to].
// hasAlts records that the chunk had an "alts" member, so that an empty
// list decodes to an empty slice and a missing one to nil, as in
// encoding/json.
type chunkSpan struct {
	from, to int
	hasAlts  bool
	retained float64
}

// fail marks the body as one the reader does not take.
func (r *ingestReader) fail() { r.failed = true }

// first records in seen that the member with the given bit was read,
// and fails if it already had been: encoding/json would decode a
// repeated key again, over the first value.
func (r *ingestReader) first(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		r.fail()
		return false
	}
	*seen |= bit
	return true
}

func (r *ingestReader) request(req *ingestRequest) {
	var seen uint8
	for n := 0; r.member(n); n++ {
		switch string(r.name()) {
		case "docs":
			if r.first(&seen, 1) {
				req.Docs = []*staccato.Doc{}
				for i := 0; r.element(i); i++ {
					req.Docs = append(req.Docs, r.doc())
				}
			}
		case "timeout_ms":
			if r.first(&seen, 2) {
				req.TimeoutMS = r.integer()
			}
		default:
			r.fail()
		}
	}
	r.space()
	if r.pos != len(r.b) {
		r.fail()
	}
}

func (r *ingestReader) doc() *staccato.Doc {
	d := new(staccato.Doc)
	r.text, r.alts, r.chunks = r.text[:0], r.alts[:0], r.chunks[:0]
	var seen uint8
	for n := 0; r.member(n); n++ {
		switch string(r.name()) {
		case "id":
			if r.first(&seen, 1) {
				r.id = r.appendString(r.id[:0])
				d.ID = string(r.id)
			}
		case "params":
			if r.first(&seen, 2) {
				r.params(&d.Params)
			}
		case "chunks":
			if r.first(&seen, 4) {
				for i := 0; r.element(i); i++ {
					r.chunk()
				}
			}
		default:
			r.fail()
		}
	}
	if r.failed || seen&4 == 0 {
		return d
	}
	text := string(r.text)
	alts := make([]staccato.Alt, len(r.alts))
	for i, a := range r.alts {
		alts[i] = staccato.Alt{Text: text[a.from:a.to], Prob: a.prob}
	}
	d.Chunks = make([]staccato.PathSet, len(r.chunks))
	for i, c := range r.chunks {
		d.Chunks[i].Retained = c.retained
		if c.hasAlts {
			d.Chunks[i].Alts = alts[c.from:c.to:c.to] // full: an append copies instead of overwriting the next chunk
		}
	}
	return d
}

func (r *ingestReader) params(p *staccato.Params) {
	var seen uint8
	for n := 0; r.member(n); n++ {
		switch string(r.name()) {
		case "chunks":
			if r.first(&seen, 1) {
				p.Chunks = r.integer()
			}
		case "k":
			if r.first(&seen, 2) {
				p.K = r.integer()
			}
		default:
			r.fail()
		}
	}
}

func (r *ingestReader) chunk() {
	c := chunkSpan{from: len(r.alts), to: len(r.alts)}
	var seen uint8
	for n := 0; r.member(n); n++ {
		switch string(r.name()) {
		case "alts":
			if r.first(&seen, 1) {
				for i := 0; r.element(i); i++ {
					r.alt()
				}
				c.hasAlts, c.to = true, len(r.alts)
			}
		case "retained":
			if r.first(&seen, 2) {
				c.retained = r.float()
			}
		default:
			r.fail()
		}
	}
	r.chunks = append(r.chunks, c)
}

func (r *ingestReader) alt() {
	a := altSpan{from: len(r.text)}
	var seen uint8
	for n := 0; r.member(n); n++ {
		switch string(r.name()) {
		case "text":
			if r.first(&seen, 1) {
				r.text = r.appendString(r.text)
			}
		case "prob":
			if r.first(&seen, 2) {
				a.prob = r.float()
			}
		default:
			r.fail()
		}
	}
	a.to = len(r.text)
	r.alts = append(r.alts, a)
}

// space skips JSON whitespace.
func (r *ingestReader) space() {
	for r.pos < len(r.b) {
		switch r.b[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// member moves to the n-th member of an object (counting from 0, where
// member 0 opens the object): it reports false after the closing brace,
// or once the reader has failed. Otherwise name reads the member's name,
// leaving the cursor on its value.
func (r *ingestReader) member(n int) bool {
	return r.next('{', '}', n)
}

// element moves to the n-th element of an array (counting from 0, where
// element 0 opens the array): it reports false after the closing
// bracket, or once the reader has failed.
func (r *ingestReader) element(n int) bool {
	return r.next('[', ']', n)
}

// next moves to the n-th member or element of the object or array
// delimited by open and close.
func (r *ingestReader) next(open, close byte, n int) bool {
	if r.failed {
		return false
	}
	r.space()
	switch {
	case r.pos == len(r.b):
	case n == 0 && r.b[r.pos] == open:
		r.pos++
		r.space()
		if r.pos < len(r.b) && r.b[r.pos] == close {
			r.pos++
			return false
		}
		return true
	case n > 0 && r.b[r.pos] == close:
		r.pos++
		return false
	case n > 0 && r.b[r.pos] == ',':
		r.pos++
		r.space()
		return true
	}
	r.fail()
	return false
}

// name reads a member's name and the colon after it. The name is
// compared to the JSON tags raw: one written with an escape or a control
// character matches no tag, and fails.
func (r *ingestReader) name() []byte {
	if r.pos < len(r.b) && r.b[r.pos] == '"' {
		if n := bytes.IndexByte(r.b[r.pos+1:], '"'); n >= 0 {
			name := r.b[r.pos+1 : r.pos+1+n]
			r.pos += n + 2
			r.space()
			if r.pos < len(r.b) && r.b[r.pos] == ':' {
				r.pos++
				r.space()
				return name
			}
		}
	}
	r.fail()
	return nil
}

// number consumes a JSON number literal and returns it. It fails when
// the bytes there do not follow the JSON number grammar, which is
// stricter than strconv's (no '+', leading zeros, hex, or "Inf").
func (r *ingestReader) number() []byte {
	b, i := r.b, r.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		r.fail()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			r.fail()
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.fail()
			return nil
		}
		i = j
	}
	lit := b[r.pos:i]
	r.pos = i
	return lit
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 as encoding/json does, with
// strconv.ParseFloat; a value it rejects (out of range) fails.
func (r *ingestReader) float() float64 {
	f, err := strconv.ParseFloat(string(r.number()), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// integer reads a number into an int; a fraction, an exponent or an
// out-of-range value, all errors to encoding/json, fails.
func (r *ingestReader) integer() int {
	n, err := strconv.Atoi(string(r.number()))
	if err != nil {
		r.fail()
	}
	return n
}

// appendString consumes a JSON string and appends its unquoted bytes to
// dst, exactly as encoding/json unquotes: the escapes of the JSON
// grammar, a \u escape of a UTF-16 surrogate joined with the low
// surrogate escaped after it or else read as U+FFFD, and every byte of
// invalid UTF-8 replaced by U+FFFD. A control character or an invalid
// escape fails.
func (r *ingestReader) appendString(dst []byte) []byte {
	b := r.b
	if r.pos >= len(b) || b[r.pos] != '"' {
		r.fail()
		return dst
	}
	i := r.pos + 1
	from := i
	for i < len(b) && b[i] != '"' && b[i] != '\\' && ' ' <= b[i] && b[i] < utf8.RuneSelf {
		i++
	}
	dst = append(dst, b[from:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			r.pos = i + 1
			return dst
		case c == '\\':
			if i+1 == len(b) {
				r.fail()
				return dst
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(b[i:])
				if rr < 0 {
					r.fail()
					return dst
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if pair := utf16.DecodeRune(rr, hex4(b[i:])); pair != utf8.RuneError {
						rr = pair
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, rr) // a lone surrogate appends U+FFFD
				continue
			default:
				r.fail()
				return dst
			}
			i += 2
		case c < ' ':
			r.fail()
			return dst
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			rr, size := utf8.DecodeRune(b[i:])
			dst = utf8.AppendRune(dst, rr)
			i += size
		}
	}
	r.fail()
	return dst
}

// hex4 returns the code unit of the \uXXXX escape b starts with, or -1
// when b does not start with one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

package index

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// Index is an in-memory inverted q-gram index over documents. It is safe
// for concurrent use: lookups take no lock, and mutations are serialized.
//
// The index is a sequence of immutable versions, one per commit, in the
// manner of LSM trees (O'Neil et al., 1996) and of MVCC snapshots. A
// version holds the index in the shape of its log: a list of parts, each
// one Batch — sorted grams and their runs back to back in flat arrays — as
// a commit or a rewrite built it or as its log record parsed, with the
// ordinal its first document takes; a bitmap of the dead ordinals; and
// the counts and the wildcard alphabet. Commit publishes the next version
// through one atomic pointer, and a lookup pins the version it loads and
// answers from it alone, all its parts at once, so it never sees half a
// commit.
// Deletes and supersedes only mark the old ordinal dead, in a copy of the
// bitmap: the parts keep the stale postings and lookups filter them out.
// A fixed tiering rule merges the newest parts while they hold, together,
// at least half the postings of the part before them, which keeps each
// part under half the size of the one before it and so the part count
// logarithmic. A rewrite (Commit past its trigger, Persist) merges every
// part into one without the dead ordinals.
type Index struct {
	q int

	// cur is the current version. Lookups load it and take no lock.
	cur atomic.Pointer[version]

	// wmu serializes the writers — Commit from the apply through the
	// record's append, Persist from the merge to the swap, and Close —
	// and guards ord, logBase and log.
	wmu sync.Mutex
	ord map[string]uint32 // live document ID -> ordinal
	// logBase is the length of an index log holding just the last
	// rewrite's part, which sets when a log built on it is rewritten
	// (Commit).
	logBase int64

	// accums recycles the ordinal-sized scratch of a lookup's
	// intersections, Patterns and Or nodes.
	accums sync.Pool

	// log is the index's log (see Open); logEnd is its length, where the
	// next record goes, and 0 while the index is unpersisted.
	log    logFile
	logEnd atomic.Int64
}

// version is the index as of one commit. It is never changed once
// published; the next commit builds a new one, sharing what it leaves as
// it is.
type version struct {
	// parts hold the ordinals [0, n), in order, each its own range.
	parts []part
	n     uint32
	// dead is a bitmap of the dead ordinals. An ordinal past its end is
	// live, so versions share it until a commit kills one.
	dead []uint64
	live int // the live documents
	// grams counts the distinct grams of the parts, and postings their
	// runs' length, dead postings included (Stats).
	grams, postings int
	// alphabet is every rune of every gram of the parts, ascending: the
	// values a wildcard position is probed with.
	alphabet []rune
}

// part is one Batch of a version, whose documents hold the ordinals from
// first on, in its add order; its runs name them by their local ordinal,
// the position in its add list.
type part struct {
	*Batch
	first uint32
	// at is the index of each of its grams, for find.
	at map[string]uint32
	// over and short are the local ordinals of its overflow documents,
	// candidates for every query, and of its short ones, candidates for
	// every wildcard lookup (Entry.Short), read from its flags.
	over, short []uint32
}

// newPart returns b as the part whose documents take the ordinals from
// first on, with its gram table and its overflow and short lists.
func newPart(b *Batch, first uint32) part {
	p := part{Batch: b, first: first, at: make(map[string]uint32, len(b.grams))}
	for k, g := range b.grams {
		p.at[g] = uint32(k)
	}
	for i, f := range b.flags {
		switch {
		case f&flagOverflow != 0:
			p.over = append(p.over, uint32(i))
		case f&flagShort != 0:
			p.short = append(p.short, uint32(i))
		}
	}
	return p
}

// find returns the run of gram g in the part, empty if it holds none.
func (p *part) find(g string) postings {
	if k, ok := p.at[g]; ok {
		return p.run(int(k))
	}
	return postings{}
}

// New returns an empty index over q-rune grams. q < 1 selects
// DefaultGramSize.
func New(q int) *Index {
	if q < 1 {
		q = DefaultGramSize
	}
	ix := &Index{q: q, ord: make(map[string]uint32)}
	ix.cur.Store(&version{})
	return ix
}

// GramSize returns the q the index was built with. Plans must be extracted
// at the same gram size or lookups would be meaningless.
func (ix *Index) GramSize() int { return ix.q }

// Apply commits Invert(adds) and dels, for callers that have not inverted
// their entries already and keep no log: on a persisted index the record
// is stamped with the zero CommitState, and a failure of the log, which
// stops persistence as in Commit, goes unreported.
func (ix *Index) Apply(adds []Entry, dels []string) {
	_ = ix.Commit(Invert(adds), dels, diskstore.CommitState{})
}

// step returns the version that follows v by one commit (see push),
// with b's grams learned and the parts tiered.
func (v *version) step(ord map[string]uint32, b *Batch, dels []string) *version {
	next := *v
	next.parts, next.dead = slices.Clone(v.parts), slices.Clone(v.dead)
	next.push(ord, b, dels)
	next.parts = tier(next.parts)
	next.learn(b, v.parts)
	return &next
}

// push makes v, which is not published, follow itself by one commit in
// place, and updates ord to match: dels and every earlier document of an
// ID that b adds die, and b, unless it adds nothing, becomes the last
// part, without its gram table until tier gives it one. It neither learns
// b's grams nor tiers the parts.
func (v *version) push(ord map[string]uint32, b *Batch, dels []string) {
	for i, id := range slices.Concat(dels, b.ids) {
		if o, ok := ord[id]; ok {
			if w := int(o / 64); w >= len(v.dead) {
				v.dead = append(v.dead, make([]uint64, w+1-len(v.dead))...)
			}
			v.dead[o/64] |= 1 << (o % 64)
		}
		if delete(ord, id); i >= len(dels) {
			ord[id] = v.n + uint32(i-len(dels))
		}
	}
	if len(b.ids) > 0 {
		v.parts = append(v.parts, part{Batch: b, first: v.n})
		v.n += uint32(len(b.ids))
		v.postings += len(b.ords)
	}
	v.live = len(ord)
}

func (v *version) isDead(o uint32) bool { return isDead(v.dead, o) }

// isDead reports whether the bitmap dead marks ordinal o; an ordinal past
// its end is not marked.
func isDead(dead []uint64, o uint32) bool {
	return int(o/64) < len(dead) && dead[o/64]&(1<<(o%64)) != 0
}

// learn counts the grams of b that no part of older holds and adds their
// runes to the alphabet, which it copies first.
func (v *version) learn(b *Batch, older []part) {
	for _, g := range b.grams {
		if slices.ContainsFunc(older, func(p part) bool { return len(p.find(g).ords) > 0 }) {
			continue
		}
		v.grams++
		for _, r := range g {
			if at, known := slices.BinarySearch(v.alphabet, r); !known {
				v.alphabet = slices.Insert(slices.Clip(v.alphabet), at, r)
			}
		}
	}
}

// tier merges runs of adjacent parts so that each part holds fewer than
// half the postings of the one before it: from the oldest on, the newest
// parts merge while, together, they hold at least half the postings of
// the part before them. Only whole parts are joined, so ordinals keep
// their meaning.
func tier(parts []part) []part {
	var groups [][]part // runs of parts, each a subslice of parts
	var postings []int  // each group's
	for i, p := range parts {
		groups, postings = append(groups, parts[i:i+1]), append(postings, len(p.ords))
		for n := len(groups); n > 1 && 2*postings[n-1] >= postings[n-2]; n-- {
			groups[n-2] = groups[n-2][:len(groups[n-2])+len(groups[n-1])]
			postings[n-2] += postings[n-1]
			groups, postings = groups[:n-1], postings[:n-1]
		}
	}
	out := make([]part, len(groups))
	for i, g := range groups {
		if out[i] = g[0]; len(g) > 1 {
			batches := make([]*Batch, len(g))
			for j, p := range g {
				batches[j] = p.Batch
			}
			out[i] = newPart(merge(batches, nil), g[0].first)
		} else if g[0].at == nil { // from push, which leaves a part's table until it stays
			out[i] = newPart(g[0].Batch, g[0].first)
		}
	}
	return out
}

// postings is one gram's posting list: ascending document ordinals and,
// aligned with them, each document's probability upper bound for the
// gram, quantized (see Entry.Bounds). A lookup's intermediate results
// have the same shape.
type postings struct {
	ords []uint32
	bnds []uint16
}

// parts is a lookup node's answer over the version it reads: [i] holds
// part i's postings, in its local ordinals. Every node answers for all
// the parts at once — an intersection of lists is the intersection of
// their part-i runs, for each i — so no run is ever copied just to join
// it to another, and Candidates joins the root's parts into one answer.
type parts []postings

// intersect returns the ordinals two ascending lists of one part share,
// each at the min of its two bounds. It walks the longer list against the
// shorter: by probing a bitmap of the shorter list's ordinals when the
// lengths are comparable, and by galloping when the longer list is at
// least gallopRatio times as long, so a small running set costs a few
// probes per member instead of a pass over a long posting list. Either way
// the result is the same set at the same bounds, written into into's
// backing, grown if it is too small; neither list may share that backing
// (either may be a shared posting list). a must be empty and cover every
// ordinal of both lists, and is left empty.
func (a *accum) intersect(x, y, into postings) postings {
	if len(x.ords) > len(y.ords) {
		x, y = y, x
	}
	if len(y.ords) >= gallopRatio*len(x.ords) {
		return intersectGallop(x, y, into)
	}
	return a.probe(x, y, into)
}

// probe is intersect by marking x, the shorter list, in a's bitmap, with
// its bounds in sum, and walking y against the marks (hits).
func (a *accum) probe(x, y, into postings) postings {
	for k, o := range x.ords {
		a.seen[o/64] |= 1 << (o % 64)
		a.sum[o] = uint32(x.bnds[k])
	}
	// One slot past the last hit: the slot a miss writes.
	n := len(x.ords) + 1
	out := postings{slices.Grow(into.ords[:0], n)[:n], slices.Grow(into.bnds[:0], n)[:n]}
	n = hits(y, a.sum, a.seen, out)
	for _, o := range x.ords {
		a.seen[o/64] = 0 // only x's bits were set
	}
	return postings{out.ords[:n], out.bnds[:n]}
}

// hits writes the ordinals of y marked in seen to out, each at the min of
// its bound in y and in sum, and returns how many there are. It has no
// data-dependent branch, whose mispredictions cost a merge a few
// nanoseconds per element: every ordinal is written to the next slot of
// out, which only a hit moves past. It is a function of its own so that
// the compiler keeps the loop's counter in a register: inlined in probe,
// it spilled the counter to the stack.
func hits(y postings, sum []uint32, seen []uint64, out postings) int {
	n, ybnds, bnds := 0, y.bnds[:len(y.ords)], out.bnds[:len(out.ords)]
	for j, o := range y.ords {
		// sum[o] is stale where o is not marked; the next ordinal then
		// overwrites the slot.
		out.ords[n], bnds[n] = o, min(uint16(sum[o]), ybnds[j])
		n += int(seen[o/64] >> (o % 64) & 1)
	}
	return n
}

// intersectGallop is intersect by galloping through y for each ordinal
// of x, the shorter, from where the previous search stopped.
func intersectGallop(x, y, into postings) postings {
	out := postings{into.ords[:0], into.bnds[:0]}
	j := 0
	for i, o := range x.ords {
		if j += gallop(y.ords[j:], o); j == len(y.ords) {
			break
		}
		if y.ords[j] == o {
			out.ords = append(out.ords, o)
			out.bnds = append(out.bnds, min(x.bnds[i], y.bnds[j]))
			j++
		}
	}
	return out
}

// gallopRatio is how many times longer than the other list a list must be
// for intersect to gallop through it. BenchmarkIntersect sets it, on 64
// list pairs in turn against a long list of 4,096 ordinals (µs per pair,
// three runs on 2 vCPU): probe 12.8–19.1 and gallop 23.5–25.2 at 1:8;
// probe 17.9–18.3 and gallop 14.8–15.0 at 1:16; probe 17.3–19.6 and
// gallop 8.7–8.9 at 1:32.
const gallopRatio = 16

// gallop returns the index of the first element of the ascending s that
// is not below x, len(s) if none is. It probes s[0], s[1], s[3], s[7], …
// until one is not below x, then binary-searches from just past the last
// probe below x up to and including that one, which may itself be the
// answer.
func gallop(s []uint32, x uint32) int {
	hi := 1
	for hi <= len(s) && s[hi-1] < x {
		hi *= 2
	}
	lo := hi / 2 // s[:lo] is below x
	at, _ := slices.BinarySearch(s[lo:min(hi, len(s))], x)
	return lo + at
}

// Len returns the number of live indexed documents.
func (ix *Index) Len() int { return ix.cur.Load().live }

// Stats describes the index's current shape.
type Stats struct {
	// Docs is the number of live indexed documents.
	Docs int
	// Grams is the number of distinct grams with at least one posting
	// (dead postings included until the next rewrite).
	Grams int
	// Postings is the total posting-list length across all grams (dead
	// postings included until the next rewrite).
	Postings int
	// OverflowDocs counts live documents indexed as always-matching.
	OverflowDocs int
	// LogBytes is the length of the index's log; 0 while the index is
	// unpersisted.
	LogBytes int64
}

// Stats reports document, gram, and posting counts.
func (ix *Index) Stats() Stats {
	v := ix.cur.Load()
	st := Stats{Docs: v.live, Grams: v.grams, Postings: v.postings, LogBytes: ix.logEnd.Load()}
	for _, p := range v.parts {
		for _, o := range p.over {
			if !v.isDead(p.first + o) {
				st.OverflowDocs++
			}
		}
	}
	return st
}

// merged returns the live documents as one Batch, without the dead
// ordinals and stale postings that write churn accumulates: the part a
// rewrite leaves. Live ordinals are renumbered densely in ordinal order.
func (v *version) merged() *Batch {
	batches := make([]*Batch, len(v.parts))
	for i, p := range v.parts {
		batches[i] = p.Batch
	}
	return merge(batches, v.dead)
}

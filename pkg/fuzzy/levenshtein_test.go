package fuzzy

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// dfaContains runs the DFA over text the way pkg/query does: step rune
// by rune, matching absorbs.
func dfaContains(d *DFA, text string) bool {
	q := d.Start()
	for _, r := range text {
		var hit bool
		q, hit = d.Step(q, r)
		if hit {
			return true
		}
	}
	return false
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		term string
		dist int
		ok   bool
	}{
		{"", 0, false},
		{"a", 0, true},
		{"a", 1, false},  // term no longer than distance
		{"ab", 2, false}, // likewise
		{"abc", 2, true},
		{"abc", 3, false}, // distance above MaxDistance
		{"abc", -1, false},
		{string(make([]rune, 65)), 0, false}, // over the rune limit
	}
	for _, c := range cases {
		_, err := Compile(c.term, c.dist)
		if (err == nil) != c.ok {
			t.Errorf("Compile(%q, %d): err=%v, want ok=%v", c.term, c.dist, err, c.ok)
		}
	}
}

func TestDFAExactAndEdits(t *testing.T) {
	cases := []struct {
		term string
		dist int
		text string
		want bool
	}{
		{"staccato", 0, "the staccato system", true},
		{"staccato", 0, "the staccat0 system", false},
		{"staccato", 1, "the staccat0 system", true},  // substitution
		{"staccato", 1, "the staccto system", true},   // deletion
		{"staccato", 1, "the staxccato system", true}, // insertion
		{"staccato", 1, "the stcact0 system", false},  // two edits
		{"staccato", 2, "the stacat0 system", true},   // deletion + substitution
		{"abc", 1, "", false},
		{"abc", 1, "zzzz", false},
		{"abc", 1, "ab", true},  // one deletion, window at end of text
		{"abc", 1, "xbc", true}, // substitution at window start
		{"héllo", 1, "ahexllo!", false},
		{"héllo", 1, "ahéxllo!", true}, // rune-level, not byte-level, edits
		{"héllo", 1, "hello", true},    // é→e is ONE rune substitution
		{"日本語", 1, "この日本語の", true},
		{"日本語", 1, "この日木語の", true},
		{"日本語", 1, "この月木語の", false},
	}
	for _, c := range cases {
		d, err := Compile(c.term, c.dist)
		if err != nil {
			t.Fatalf("Compile(%q, %d): %v", c.term, c.dist, err)
		}
		if got := dfaContains(d, c.text); got != c.want {
			t.Errorf("DFA(%q, %d) on %q: got %v, want %v", c.term, c.dist, c.text, got, c.want)
		}
		if got := Within(c.text, c.term, c.dist); got != c.want {
			t.Errorf("Within(%q, %q, %d): got %v, want %v", c.text, c.term, c.dist, got, c.want)
		}
	}
}

func TestStartStateNeverAccepts(t *testing.T) {
	for _, term := range []string{"a", "ab", "staccato", "日本語"} {
		for dist := 0; dist <= MaxDistance && dist < len([]rune(term)); dist++ {
			d, err := Compile(term, dist)
			if err != nil {
				t.Fatalf("Compile(%q, %d): %v", term, dist, err)
			}
			if d.accept[d.Start()] {
				t.Errorf("Compile(%q, %d): start state accepts the empty window", term, dist)
			}
		}
	}
}

// TestDeterministicConstruction compiles the same term twice and demands
// identical state numbering and transitions: the product DP downstream
// derives float accumulation order from these IDs, so any construction
// nondeterminism would break bit-identical search results.
func TestDeterministicConstruction(t *testing.T) {
	for _, term := range []string{"staccato", "abcabc", "日本語テスト", "mississippi"} {
		for dist := 0; dist <= MaxDistance; dist++ {
			a := MustCompile(term, dist)
			b := MustCompile(term, dist)
			if !reflect.DeepEqual(a.trans, b.trans) || !reflect.DeepEqual(a.accept, b.accept) ||
				!reflect.DeepEqual(a.alphabet, b.alphabet) {
				t.Fatalf("Compile(%q, %d) is not deterministic", term, dist)
			}
		}
	}
}

// TestDFAAgainstOracleRandom cross-checks the DFA against the reference
// DP over random terms and inputs drawn from a small alphabet (small so
// near-misses are common, which is where the two could disagree).
func TestDFAAgainstOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := []rune("abcd")
	randWord := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = letters[rng.Intn(len(letters))]
		}
		return string(out)
	}
	for trial := 0; trial < 2000; trial++ {
		dist := rng.Intn(MaxDistance + 1)
		term := randWord(dist + 1 + rng.Intn(6))
		text := randWord(rng.Intn(20))
		d, err := Compile(term, dist)
		if err != nil {
			t.Fatalf("Compile(%q, %d): %v", term, dist, err)
		}
		got, want := dfaContains(d, text), Within(text, term, dist)
		if got != want {
			t.Fatalf("term=%q dist=%d text=%q: DFA=%v oracle=%v", term, dist, text, got, want)
		}
	}
}

func TestNumStatesBounded(t *testing.T) {
	// The worst realistic case — a long low-diversity term at max
	// distance — must stay far under the uint16 joint-state encoding.
	d := MustCompile("abababababababababababababababab", MaxDistance)
	if n := d.NumStates(); n >= maxStates {
		t.Fatalf("NumStates=%d, want < %d", n, maxStates)
	}
}

// TestCompileRefusesStateCap: the state cap is an input limit that a
// legal term can reach — "a"×64 at distance 2 is within maxTermRunes and
// MaxDistance — and Compile reports it as an error instead of building
// past the uint16 state encoding.
func TestCompileRefusesStateCap(t *testing.T) {
	term := strings.Repeat("a", maxTermRunes)
	if _, err := Compile(term, MaxDistance); err == nil || !strings.Contains(err.Error(), "DFA states") {
		t.Fatalf("Compile(a×%d, %d): err %v, want the state-cap error", maxTermRunes, MaxDistance, err)
	}
}

// FuzzLevenshteinDFA is the native fuzz target CI smokes: for any
// (term, dist, input), running the DFA over the input must agree exactly
// with the reference edit-distance oracle.
func FuzzLevenshteinDFA(f *testing.F) {
	f.Add("staccato", 1, "the staccat0 system")
	f.Add("abc", 0, "xabcx")
	f.Add("abc", 2, "")
	f.Add("日本語", 1, "この日木語の")
	f.Add("aaaa", 2, "aabaa")
	f.Add("ab", 1, "ba")
	f.Fuzz(func(t *testing.T, term string, dist int, text string) {
		d, err := Compile(term, dist)
		if err != nil {
			t.Skip() // invalid (term, dist) pairs are Compile's to reject
		}
		got, want := dfaContains(d, text), Within(text, term, dist)
		if got != want {
			t.Fatalf("term=%q dist=%d text=%q: DFA=%v oracle=%v", term, dist, text, got, want)
		}
	})
}

func TestEditKernels(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"staccato", "staccat0", 1},
		{"héllo", "hello", 1}, // one rune, two bytes
		{"日本語", "日木語", 1},
		{"ab", "ba", 2},
	} {
		if got := EditDistance([]rune(c.a), []rune(c.b)); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// The window "stacato", ending after rune 9, is one deletion away
	// from the term; the best windows ending one rune earlier or later
	// are two away, and before the "s" only the lone "a" saves an edit.
	got := EndCosts([]rune("a stacatos"), []rune("staccato"))
	if want := []int{8, 7, 7, 7, 6, 5, 4, 3, 2, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("EndCosts = %v, want %v", got, want)
	}
}

// FuzzEditKernels holds the two kernels to their definitions: an end
// cost is the best edit distance of any window ending there, and the
// edit distance is a symmetric distance bounded by the lengths.
func FuzzEditKernels(f *testing.F) {
	f.Add("the staccat0 system", "staccato")
	f.Add("", "abc")
	f.Add("abc", "")
	f.Add("この日木語の", "日本語")
	f.Add("aabaa", "aaaa")
	f.Add("ba", "ab")
	f.Add("a\xffb", "a\x80b")
	f.Fuzz(func(t *testing.T, x, y string) {
		a, b := []rune(x), []rune(y)
		a, b = a[:min(len(a), 32)], b[:min(len(b), 32)]
		costs := EndCosts(a, b)
		if len(costs) != len(a)+1 || costs[0] != len(b) {
			t.Fatalf("EndCosts(%q, %q) = %v: want %d costs, the first %d", string(a), string(b), costs, len(a)+1, len(b))
		}
		for e := range costs {
			best := len(b)
			for s := 0; s <= e; s++ {
				best = min(best, EditDistance(a[s:e], b))
			}
			if costs[e] != best {
				t.Fatalf("EndCosts(%q, %q)[%d] = %d, want the best window's %d", string(a), string(b), e, costs[e], best)
			}
		}
		d := EditDistance(a, b)
		if r := EditDistance(b, a); r != d {
			t.Fatalf("EditDistance(%q, %q) = %d but %d reversed", string(a), string(b), d, r)
		}
		if (d == 0) != slices.Equal(a, b) {
			t.Fatalf("EditDistance(%q, %q) = %d", string(a), string(b), d)
		}
		if lo, hi := max(len(a)-len(b), len(b)-len(a)), max(len(a), len(b)); d < lo || d > hi {
			t.Fatalf("EditDistance(%q, %q) = %d, outside [%d, %d]", string(a), string(b), d, lo, hi)
		}
	})
}

package query

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// checkContextWindow asserts every rune-safety property addContext
// promises for one (text, span, n) triple: the context is valid UTF-8
// (no rune was split), it contains the matched text verbatim, and the
// window never exceeds the span plus n runes of surrounding text on each
// side — clamped at the text edges, never beyond them.
func checkContextWindow(t *testing.T, text string, sp Span, n int) {
	t.Helper()
	runes := []rune(text)
	if !utf8.ValidString(sp.Context) {
		t.Fatalf("context %q is not valid UTF-8: a rune was split", sp.Context)
	}
	matched := string(runes[sp.RuneStart:sp.RuneEnd])
	if !strings.Contains(sp.Context, matched) {
		t.Fatalf("context %q does not contain the matched text %q", sp.Context, matched)
	}
	lo := sp.RuneStart - n
	if lo < 0 {
		lo = 0
	}
	hi := sp.RuneEnd + n
	if hi > len(runes) {
		hi = len(runes)
	}
	if got, want := utf8.RuneCountInString(sp.Context), hi-lo; got != want {
		t.Fatalf("context %q spans %d runes, want exactly the clamped window of %d", sp.Context, got, want)
	}
	if got := string(runes[lo:hi]); sp.Context != got {
		t.Fatalf("context %q != text window %q", sp.Context, got)
	}
}

// TestAddContextMultiByteRunes is the deterministic property sweep for
// the context extractor over texts dominated by multi-byte runes, where a
// byte-offset implementation would slice mid-rune. Every (span position,
// width, context size) combination must produce a valid window.
func TestAddContextMultiByteRunes(t *testing.T) {
	texts := []string{
		"héllo wörld çafé",
		"日本語のテキストです",
		"mixed ascii と 日本語 and émoji 🙂🙃 tail",
		"🙂🙃🙂🙃🙂🙃",
		"a",
		"",
	}
	for _, text := range texts {
		runes := []rune(text)
		for start := 0; start <= len(runes); start++ {
			for end := start; end <= len(runes); end++ {
				for _, n := range []int{0, 1, 2, 5, 1000} {
					spans := []Span{{RuneStart: start, RuneEnd: end}}
					addContext(text, spans, n)
					checkContextWindow(t, text, spans[0], n)
				}
			}
		}
	}
}

// TestSnippetContextClampEndToEnd pins the single documented cap: a
// ContextRunes request beyond MaxContextRunes behaves exactly like
// MaxContextRunes, so every surface (library, CLI flag, server knob)
// shares one limit.
func TestSnippetContextClampEndToEnd(t *testing.T) {
	got := SnippetOptions{ContextRunes: MaxContextRunes * 10}.withDefaults()
	if got.ContextRunes != MaxContextRunes {
		t.Fatalf("ContextRunes clamped to %d, want MaxContextRunes = %d", got.ContextRunes, MaxContextRunes)
	}
	kept := SnippetOptions{ContextRunes: 7}.withDefaults()
	if kept.ContextRunes != 7 {
		t.Fatalf("ContextRunes = %d, want in-range request 7 untouched", kept.ContextRunes)
	}
}

// FuzzSnippetContext hammers addContext with arbitrary strings, invalid
// UTF-8 included, and arbitrary span geometry. The harness normalizes
// the offsets into the valid range MatchText guarantees and then
// requires the same window properties the deterministic test pins.
func FuzzSnippetContext(f *testing.F) {
	f.Add("héllo wörld", 1, 3, 4)
	f.Add("日本語のテキスト", 0, 2, 1)
	f.Add("🙂🙃🙂", 2, 3, 512)
	f.Add("plain ascii text", 6, 11, 0)
	f.Add("", 0, 0, 8)
	f.Add("x\x80y\xfez", 1, 2, 1)
	f.Fuzz(func(t *testing.T, text string, start, end, n int) {
		// Readings may hold invalid UTF-8, and a matching one carries
		// spans: each invalid byte is one U+FFFD rune, to the automaton,
		// to the span finders and to addContext alike, so the window
		// properties hold on any text.
		runes := []rune(text)
		if start < 0 {
			start = -start
		}
		if end < 0 {
			end = -end
		}
		if len(runes) > 0 {
			start %= len(runes) + 1
			end %= len(runes) + 1
		} else {
			start, end = 0, 0
		}
		if end < start {
			start, end = end, start
		}
		if n < 0 {
			n = -n
		}
		n %= MaxContextRunes + 1
		spans := []Span{{RuneStart: start, RuneEnd: end}}
		addContext(text, spans, n)
		checkContextWindow(t, text, spans[0], n)
	})
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
)

// TestDemoRecallBeyondMAP runs the demo at its default dial (200-char
// document, chunks=10, k=4) and asserts the acceptance scenario: a
// ground-truth term absent from the MAP string gets non-zero probability
// from the Staccato doc — recall beyond MAP, the paper's headline result.
func TestDemoRecallBeyondMAP(t *testing.T) {
	var out strings.Builder
	rep, err := run(&out, config{seed: 42, length: 200, chunks: 10, k: 4, termLen: 4})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if rep.term == "" {
		t.Fatal("demo found no term")
	}
	if !strings.Contains(rep.truth, rep.term) {
		t.Errorf("term %q not in ground truth", rep.term)
	}
	if strings.Contains(rep.mapString, rep.term) || rep.probMAP != 0 {
		t.Errorf("term %q should be absent from the MAP string", rep.term)
	}
	if rep.probStac <= 0 {
		t.Errorf("staccato probability = %v, want > 0", rep.probStac)
	}
	if rep.probExact <= 0 {
		t.Errorf("exact full-SFST probability = %v, want > 0", rep.probExact)
	}
	if !strings.Contains(out.String(), "staccato recovered a reading") {
		t.Errorf("demo output missing recovery line:\n%s", out.String())
	}
}

func TestDemoExplicitTerm(t *testing.T) {
	var out strings.Builder
	rep1, err := run(&out, config{seed: 7, length: 100, chunks: 8, k: 3, term: "the"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep1.term != "the" {
		t.Errorf("term = %q, want the explicit term", rep1.term)
	}
	// Deterministic: same config, same report.
	rep2, err := run(&strings.Builder{}, config{seed: 7, length: 100, chunks: 8, k: 3, term: "the"})
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Errorf("demo not deterministic: %+v vs %+v", rep1, rep2)
	}
}

// TestSearchFindsPlantedDoc plants a query term taken from a document's
// MAP string — guaranteed to have positive probability in that document's
// retained distribution — and checks the search subcommand surfaces it.
func TestSearchFindsPlantedDoc(t *testing.T) {
	cfg := searchConfig{
		docs: 25, length: 40, seed: 5, chunks: 5, k: 3,
		workers: 3, top: 0, mode: "substring", combine: "and",
	}
	cases, err := testgen.Docs(cfg.docs, testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k)
	if err != nil {
		t.Fatal(err)
	}
	mapStr := cases[7].Doc.MAP()
	cfg.terms = []string{mapStr[10:14]}

	var out strings.Builder
	rep, err := runSearch(&out, cfg)
	if err != nil {
		t.Fatalf("runSearch: %v\noutput:\n%s", err, out.String())
	}
	if rep.scanned != cfg.docs {
		t.Errorf("scanned %d docs, want %d", rep.scanned, cfg.docs)
	}
	found := false
	for _, r := range rep.results {
		if r.DocID == "doc-0008" {
			found = true
			if r.Prob <= 0 {
				t.Errorf("planted doc has probability %v, want > 0", r.Prob)
			}
		}
	}
	if !found {
		t.Errorf("planted doc-0008 missing from results %+v\noutput:\n%s", rep.results, out.String())
	}
}

// TestSearchDeterministicAcrossWorkers runs the same search at different
// worker counts and requires identical reports.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	base := searchConfig{
		docs: 60, length: 30, seed: 9, chunks: 4, k: 3,
		workers: 1, top: 10, mode: "substring", combine: "or",
		not: "zz", terms: []string{"e", "a"},
	}
	rep1, err := runSearch(&strings.Builder{}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.results) == 0 {
		t.Fatal("search matched nothing; broaden the test terms")
	}
	par := base
	par.workers = 8
	rep8, err := runSearch(&strings.Builder{}, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep8) {
		t.Errorf("workers=8 report differs from workers=1:\n%+v\n%+v", rep8, rep1)
	}
}

func TestSearchQueryValidation(t *testing.T) {
	if _, err := runSearch(&strings.Builder{}, searchConfig{docs: 1, mode: "substring", combine: "and"}); err == nil {
		t.Error("search accepted an empty term list")
	}
	// The shared query.Spec names the bad value; the CLI adds its prefix.
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		docs: 1, mode: "glob", combine: "and", terms: []string{"x"},
	}); err == nil || !strings.HasPrefix(err.Error(), `search: unknown mode "glob"`) {
		t.Errorf("search with an unknown mode: err = %v", err)
	}
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		docs: 1, mode: "substring", combine: "xor", terms: []string{"x", "y"},
	}); err == nil || !strings.HasPrefix(err.Error(), `search: unknown combine "xor"`) {
		t.Errorf("search with an unknown combiner: err = %v", err)
	}
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		docs: 1, mode: "keyword", combine: "and", not: "two words", terms: []string{"x"},
	}); err == nil {
		t.Error("keyword search accepted a -not term with a space")
	}
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		docs: 1, mode: "keyword", combine: "and", terms: []string{"two words"},
	}); err == nil {
		t.Error("keyword search accepted a term with a space")
	}
	// Out-of-range result knobs, through the flags: the range check is the
	// one the server runs, and it runs before any corpus is built.
	for _, flags := range [][]string{
		{"-top", "-3"}, {"-minprob", "2"}, {"-minprob", "NaN"}, {"-minprob", "-0.5"}, {"-snippets", "-2"},
	} {
		var out strings.Builder
		err := searchMain(&out, append(append([]string{"-docs", "5"}, flags...), "e"))
		if err == nil || !strings.HasPrefix(err.Error(), "search: ") {
			t.Errorf("search %v: err = %v, want a search: range error", flags, err)
		}
		if strings.Contains(out.String(), "corpus:") {
			t.Errorf("search %v built the corpus before rejecting the flag", flags)
		}
	}
}

// TestSearchKeywordQueryString checks the flag set maps onto the query
// algebra the way the usage text promises.
func TestSearchKeywordQueryString(t *testing.T) {
	cfg := searchConfig{
		docs: 5, length: 20, seed: 1, chunks: 3, k: 2,
		workers: 1, mode: "keyword", combine: "or",
		not: "bad", terms: []string{"foo", "bar"},
	}
	rep, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := `and(or(kw("foo"), kw("bar")), not(kw("bad")))`
	if rep.query != want {
		t.Errorf("query = %s, want %s", rep.query, want)
	}
}

// TestIngestSearchParityWithMemStore is the CLI acceptance scenario: a
// corpus ingested into a directory store and reopened by search -store
// must return byte-identical ranked results to the same corpus queried
// through the synthetic in-memory path — including after a simulated torn
// write to the store's last segment.
func TestIngestSearchParityWithMemStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	icfg := ingestConfig{store: dir, docs: 40, length: 40, seed: 5, chunks: 5, k: 3, batch: 7}
	var iout strings.Builder
	irep, err := runIngest(&iout, icfg)
	if err != nil {
		t.Fatalf("runIngest: %v\noutput:\n%s", err, iout.String())
	}
	if irep.ingested != icfg.docs || irep.stats.Docs != icfg.docs {
		t.Fatalf("ingested %d docs, stats %d, want %d", irep.ingested, irep.stats.Docs, icfg.docs)
	}

	base := searchConfig{
		length: 40, seed: 5, chunks: 5, k: 3,
		workers: 4, top: 15, mode: "substring", combine: "or",
		terms: []string{"e", "a"},
	}
	memCfg := base
	memCfg.docs = icfg.docs
	memRep, err := runSearch(&strings.Builder{}, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(memRep.results) == 0 {
		t.Fatal("mem search matched nothing; broaden the test terms")
	}
	diskCfg := base
	diskCfg.store = dir
	diskRep, err := runSearch(&strings.Builder{}, diskCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diskRep, memRep) {
		t.Fatalf("search -store report differs from -docs report:\n disk %+v\n mem  %+v", diskRep, memRep)
	}

	// Simulate a torn write: append a partial record to the last segment.
	// Reopening must truncate it away and the results must not change.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tornRep, err := runSearch(&strings.Builder{}, diskCfg)
	if err != nil {
		t.Fatalf("runSearch after torn write: %v", err)
	}
	if !reflect.DeepEqual(tornRep, memRep) {
		t.Fatalf("post-torn-write results differ:\n disk %+v\n mem  %+v", tornRep, memRep)
	}
}

// TestIndexSubcommandRecoversNoIndexStore is the new-subcommand
// acceptance scenario: a corpus ingested with -noindex searches by full
// scan; `staccato index` then builds the inverted index, and the same
// search prunes — with byte-identical results.
func TestIndexSubcommandRecoversNoIndexStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	icfg := ingestConfig{store: dir, docs: 30, length: 40, seed: 11, chunks: 5, k: 3, batch: 8, noIndex: true}
	var iout strings.Builder
	irep, err := runIngest(&iout, icfg)
	if err != nil {
		t.Fatalf("runIngest: %v\noutput:\n%s", err, iout.String())
	}
	if irep.stats.IndexEnabled {
		t.Fatal("-noindex ingest built an index anyway")
	}

	cases, err := testgen.Docs(icfg.docs, testgen.Config{Length: icfg.length, Seed: icfg.seed}, icfg.chunks, icfg.k)
	if err != nil {
		t.Fatal(err)
	}
	scfg := searchConfig{
		store: dir, workers: 2, top: 10, mode: "substring", combine: "and",
		terms: []string{cases[12].Doc.MAP()[10:17]},
	}
	// Search opens with the index enabled by default, which auto-rebuilds
	// the missing index — exercise the -noindex scan path first so the
	// parity comparison below is scan vs indexed.
	scanCfg := scfg
	scanCfg.noIndex = true
	scanRep, err := runSearch(&strings.Builder{}, scanCfg)
	if err != nil {
		t.Fatal(err)
	}
	if scanRep.pruned != 0 {
		t.Fatalf("-noindex search pruned %d docs", scanRep.pruned)
	}

	var xout strings.Builder
	xrep, err := runIndex(&xout, indexConfig{store: dir})
	if err != nil {
		t.Fatalf("runIndex: %v\noutput:\n%s", err, xout.String())
	}
	if xrep.stats.IndexDocs != icfg.docs || xrep.stats.IndexGrams == 0 {
		t.Fatalf("index stats after rebuild: %+v", xrep.stats)
	}
	if !strings.Contains(xout.String(), "indexed 30 docs") {
		t.Errorf("index output missing summary:\n%s", xout.String())
	}

	var sout strings.Builder
	vcfg := scfg
	vcfg.verbose = true
	idxRep, err := runSearch(&sout, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if idxRep.pruned == 0 {
		t.Fatalf("indexed search pruned nothing on a selective term\noutput:\n%s", sout.String())
	}
	if !strings.Contains(sout.String(), "planner:") || !strings.Contains(sout.String(), "plan:") {
		t.Errorf("-v output missing planner lines:\n%s", sout.String())
	}
	if !reflect.DeepEqual(idxRep.results, scanRep.results) {
		t.Fatalf("indexed results differ from scan results:\n idx  %+v\n scan %+v", idxRep.results, scanRep.results)
	}
}

func TestIndexSubcommandValidation(t *testing.T) {
	if _, err := runIndex(&strings.Builder{}, indexConfig{}); err == nil {
		t.Error("index accepted an empty -store")
	}
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := runIndex(&strings.Builder{}, indexConfig{store: missing}); err == nil || !strings.Contains(err.Error(), "no store at") {
		t.Errorf("index on missing store: err = %v, want a no-store error", err)
	}
	if err := indexMain(&strings.Builder{}, []string{"stray"}); err == nil {
		t.Error("index accepted a positional argument")
	}
}

// TestSearchCorpusSourceValidation is the flag-ergonomics contract:
// search must fail with a clear error — not a panic or a usage dump —
// when -docs and -store are both or neither given.
func TestSearchCorpusSourceValidation(t *testing.T) {
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		docs: 10, store: "somewhere", mode: "substring", combine: "and", terms: []string{"x"},
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both -docs and -store: err = %v, want mutually-exclusive error", err)
	}
	if _, err := runSearch(&strings.Builder{}, searchConfig{
		mode: "substring", combine: "and", terms: []string{"x"},
	}); err == nil || !strings.Contains(err.Error(), "no corpus") {
		t.Errorf("neither -docs nor -store: err = %v, want no-corpus error", err)
	}
	// Through the real flag path too: a clean error, not errFlagParse
	// (which would mean the FlagSet dumped usage).
	err := searchMain(&strings.Builder{}, []string{"hello"})
	if err == nil || err == errFlagParse {
		t.Errorf("searchMain with no corpus flags: err = %v, want a descriptive error", err)
	}
	// Synthetic-corpus shape flags are meaningless against -store and must
	// be rejected, not silently ignored.
	err = searchMain(&strings.Builder{}, []string{"-store", "somewhere", "-k", "8", "x"})
	if err == nil || !strings.Contains(err.Error(), "-k") {
		t.Errorf("searchMain with -store and -k: err = %v, want a stray-flag error naming -k", err)
	}
}

// TestSearchStoreMissingPath: a typo'd -store path must error and must
// not leave a freshly-initialized store behind.
func TestSearchStoreMissingPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-corpus")
	_, err := runSearch(&strings.Builder{}, searchConfig{
		store: missing, mode: "substring", combine: "and", terms: []string{"x"},
	})
	if err == nil || !strings.Contains(err.Error(), "no store at") {
		t.Errorf("search on missing store path: err = %v, want a no-store error", err)
	}
	if _, statErr := os.Stat(missing); !os.IsNotExist(statErr) {
		t.Errorf("search created %s as a side effect (stat err=%v)", missing, statErr)
	}
}

func TestIngestValidation(t *testing.T) {
	if _, err := runIngest(&strings.Builder{}, ingestConfig{docs: 5, batch: 4}); err == nil {
		t.Error("ingest accepted an empty -store")
	}
	if _, err := runIngest(&strings.Builder{}, ingestConfig{store: "x", docs: 0, batch: 4}); err == nil {
		t.Error("ingest accepted -docs 0")
	}
	if _, err := runIngest(&strings.Builder{}, ingestConfig{store: "x", docs: 5, batch: 0}); err == nil {
		t.Error("ingest accepted -batch 0")
	}
	if err := ingestMain(&strings.Builder{}, []string{"stray"}); err == nil {
		t.Error("ingest accepted a positional argument")
	}
}

// TestIngestIsIdempotent re-ingests the same corpus into the same store
// and checks document count is unchanged (puts supersede, not duplicate),
// then compacts away the superseded records.
func TestIngestIsIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	cfg := ingestConfig{store: dir, docs: 12, length: 30, seed: 3, chunks: 4, k: 2, batch: 5}
	if _, err := runIngest(&strings.Builder{}, cfg); err != nil {
		t.Fatal(err)
	}
	first, err := runIngest(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.stats.Docs != cfg.docs {
		t.Errorf("after re-ingest: %d live docs, want %d", first.stats.Docs, cfg.docs)
	}
	cfg.compact = true
	again, err := runIngest(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.stats.Docs != cfg.docs {
		t.Errorf("after compacting ingest: %d live docs, want %d", again.stats.Docs, cfg.docs)
	}
	if again.stats.DiskBytes >= first.stats.DiskBytes {
		t.Errorf("compaction did not reclaim space: %d -> %d bytes", first.stats.DiskBytes, again.stats.DiskBytes)
	}
}

// TestDemoRejectsPositionalArgs guards against a mistyped subcommand
// silently running the default demo.
func TestDemoRejectsPositionalArgs(t *testing.T) {
	if err := demoMain(&strings.Builder{}, []string{"serch", "-docs", "5", "e"}); err == nil {
		t.Error("demo accepted a positional argument (likely a typo'd subcommand)")
	}
}

// TestSearchRejectsTrailingFlags guards against flags placed after the
// first term silently becoming query terms.
func TestSearchRejectsTrailingFlags(t *testing.T) {
	if err := searchMain(&strings.Builder{}, []string{"e", "-top", "5"}); err == nil {
		t.Error("search accepted a flag-shaped positional term")
	}
}

// TestSearchSnippetsFlag runs search with -snippets and checks the
// ranked list is unchanged from a plain search, every printed reading
// is rendered with a witnessed span, and the readings appear in the
// output stream.
func TestSearchSnippetsFlag(t *testing.T) {
	cfg := searchConfig{
		docs: 15, length: 40, seed: 5, chunks: 5, k: 3,
		workers: 2, top: 5, mode: "substring", combine: "and",
	}
	cases, err := testgen.Docs(cfg.docs, testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k)
	if err != nil {
		t.Fatal(err)
	}
	term := cases[3].Doc.MAP()[10:14]
	cfg.terms = []string{term}

	plain, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.snippets = 2
	var out strings.Builder
	snip, err := runSearch(&out, cfg)
	if err != nil {
		t.Fatalf("runSearch -snippets: %v\noutput:\n%s", err, out.String())
	}
	if !reflect.DeepEqual(plain.results, snip.results) {
		t.Fatalf("-snippets changed the ranked results\n plain: %+v\n snips: %+v", plain.results, snip.results)
	}
	if len(snip.snips) != len(snip.results) {
		t.Fatalf("%d snippet reports for %d results", len(snip.snips), len(snip.results))
	}
	sawReading := false
	for _, sn := range snip.snips {
		for _, rd := range sn.Readings {
			sawReading = true
			if len(rd.Spans) == 0 {
				t.Errorf("doc %s: reading %q has no spans", sn.DocID, rd.Text)
			}
			for _, sp := range rd.Spans {
				if rd.Text[sp.Start:sp.End] != term {
					t.Errorf("doc %s: span [%d,%d) does not witness %q in %q",
						sn.DocID, sp.Start, sp.End, term, rd.Text)
				}
			}
			if !strings.Contains(out.String(), fmt.Sprintf("%q", rd.Text)) {
				t.Errorf("reading %q not printed in output:\n%s", rd.Text, out.String())
			}
		}
	}
	if !sawReading {
		t.Fatal("no readings reported for any matching document")
	}
}

// TestSearchFuzzyFlag corrupts one rune of a planted document's MAP
// substring and checks -fuzzy 1 still finds the document where the
// exact substring search cannot.
func TestSearchFuzzyFlag(t *testing.T) {
	cfg := searchConfig{
		docs: 25, length: 40, seed: 5, chunks: 5, k: 3,
		workers: 2, top: 0, mode: "substring", combine: "and",
	}
	cases, err := testgen.Docs(cfg.docs, testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k)
	if err != nil {
		t.Fatal(err)
	}
	term := []rune(cases[7].Doc.MAP()[10:17])
	term[3] = '0' // a digit never appears in the synthetic alphabet
	cfg.terms = []string{string(term)}

	exact, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range exact.results {
		if r.DocID == "doc-0008" {
			t.Fatalf("exact search already finds the corrupted term %q; corruption did not take", string(term))
		}
	}

	cfg.fuzzy = 1
	rep, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("fuzzy(%q, 1)", string(term))
	if rep.query != want {
		t.Errorf("query = %s, want %s", rep.query, want)
	}
	found := false
	for _, r := range rep.results {
		found = found || r.DocID == "doc-0008"
	}
	if !found {
		t.Errorf("fuzzy search for %q missed planted doc-0008: %+v", string(term), rep.results)
	}
}

func TestSearchFuzzyFlagValidation(t *testing.T) {
	base := searchConfig{docs: 1, mode: "substring", combine: "and", terms: []string{"abc"}}
	neg := base
	neg.fuzzy = -1
	if _, err := runSearch(&strings.Builder{}, neg); err == nil {
		t.Error("search accepted a negative -fuzzy distance")
	}
	big := base
	big.fuzzy = 3
	if _, err := runSearch(&strings.Builder{}, big); err == nil {
		t.Error("search accepted -fuzzy 3 beyond the supported maximum")
	}
	kw := base
	kw.fuzzy = 1
	kw.mode = "keyword"
	if _, err := runSearch(&strings.Builder{}, kw); err == nil {
		t.Error("search accepted -fuzzy together with -mode keyword")
	}
}

// TestSearchLexiconFlag checks -lexicon vocab:N re-weights probabilities
// without changing which documents match, that a wordlist file of the
// same words ranks identically, and that broken lexicon specs are
// rejected.
func TestSearchLexiconFlag(t *testing.T) {
	cfg := searchConfig{
		docs: 40, length: 30, seed: 9, chunks: 4, k: 3,
		workers: 2, top: 0, mode: "substring", combine: "or",
		terms: []string{"e", "a"},
	}
	plain, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.results) == 0 {
		t.Fatal("search matched nothing; broaden the test terms")
	}
	cfg.lexicon = "vocab:300"
	scored, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(rep searchReport) []string {
		out := make([]string, len(rep.results))
		for i, r := range rep.results {
			out[i] = r.DocID
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(ids(plain), ids(scored)) {
		t.Errorf("lexicon rescoring changed the matched set\n plain: %v\n lex:   %v", ids(plain), ids(scored))
	}
	// A wordlist file of the same words is the same lexicon.
	words := filepath.Join(t.TempDir(), "words.txt")
	if err := os.WriteFile(words, []byte(strings.Join(testgen.Vocab(300), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.lexicon = words
	fromFile, err := runSearch(&strings.Builder{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile.results, scored.results) {
		t.Errorf("-lexicon FILE ranks differently from vocab:300 with the same words\n file:  %v\n vocab: %v", fromFile.results, scored.results)
	}

	for _, bad := range []string{"vocab:", "vocab:0", "vocab:x", filepath.Join(t.TempDir(), "missing.txt")} {
		cfg.lexicon = bad
		if _, err := runSearch(&strings.Builder{}, cfg); err == nil {
			t.Errorf("search accepted broken -lexicon %q", bad)
		}
	}
}

// TestSearchContextFlag checks -context attaches surrounding text to
// every printed span and that the context window contains the match.
func TestSearchContextFlag(t *testing.T) {
	cfg := searchConfig{
		docs: 15, length: 40, seed: 5, chunks: 5, k: 3,
		workers: 2, top: 5, mode: "substring", combine: "and",
		snippets: 2, context: 6,
	}
	cases, err := testgen.Docs(cfg.docs, testgen.Config{Length: cfg.length, Seed: cfg.seed}, cfg.chunks, cfg.k)
	if err != nil {
		t.Fatal(err)
	}
	term := cases[3].Doc.MAP()[10:14]
	cfg.terms = []string{term}

	var out strings.Builder
	rep, err := runSearch(&out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, sn := range rep.snips {
		for _, rd := range sn.Readings {
			for _, sp := range rd.Spans {
				saw = true
				if sp.Context == "" {
					t.Errorf("doc %s: span %s@%d-%d has no context", sn.DocID, sp.Term, sp.Start, sp.End)
					continue
				}
				if !strings.Contains(sp.Context, rd.Text[sp.Start:sp.End]) {
					t.Errorf("doc %s: context %q does not contain the match %q",
						sn.DocID, sp.Context, rd.Text[sp.Start:sp.End])
				}
				if !strings.Contains(rd.Text, sp.Context) {
					t.Errorf("doc %s: context %q is not a window of reading %q", sn.DocID, sp.Context, rd.Text)
				}
			}
		}
	}
	if !saw {
		t.Fatal("no spans reported for any matching document")
	}
}

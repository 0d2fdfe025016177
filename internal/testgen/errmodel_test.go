package testgen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/fst"
)

// checkErrModelInvariants verifies the structural contract of one
// generated (truth, SFST) pair: every state with outgoing arcs
// distributes exactly probability 1 over them, every arc probability is
// positive, and the ground truth is an accepting path — which is what
// guarantees the FullSFST baseline's recall is always 1.
func checkErrModelInvariants(t *testing.T, truth string, f *fst.SFST) {
	t.Helper()
	for s := 0; s < f.NumStates(); s++ {
		arcs := f.Arcs(fst.StateID(s))
		if len(arcs) == 0 {
			continue
		}
		sum := 0.0
		for _, a := range arcs {
			p := a.Prob()
			if p <= 0 || p > 1 {
				t.Fatalf("state %d: arc probability %v out of (0, 1]", s, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("state %d: outgoing probability mass %v, want 1", s, sum)
		}
	}

	// Reachability DP over (state, truth prefix): the truth must spell a
	// start→final path.
	cur := map[fst.StateID]bool{f.Start(): true}
	for _, r := range truth {
		next := map[fst.StateID]bool{}
		for s := range cur {
			for _, a := range f.Arcs(s) {
				if a.Label == r {
					next[a.To] = true
				}
			}
		}
		if len(next) == 0 {
			t.Fatalf("truth %q is not spellable by the transducer", truth)
		}
		cur = next
	}
	accepted := false
	for s := range cur {
		if f.IsFinal(s) {
			accepted = true
		}
	}
	if !accepted {
		t.Fatalf("truth %q spells only non-accepting paths", truth)
	}
}

func TestErrModelDeterministic(t *testing.T) {
	cfg := ErrModelConfig{Words: 10, Seed: 17}
	t1, f1, err := GenerateErrModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, f2, err := GenerateErrModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("truths differ: %q vs %q", t1, t2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("same config produced structurally different SFSTs")
	}
}

func TestErrModelInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		truth, f, err := GenerateErrModel(ErrModelConfig{Words: 12, Seed: seed, BurstRate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		checkErrModelInvariants(t, truth, f)
	}
}

// TestErrModelSharedVocabulary pins the property the recall workload
// depends on: documents generated with different seeds draw tokens from
// one vocabulary keyed only on VocabSize, so terms recur across the
// corpus.
func TestErrModelSharedVocabulary(t *testing.T) {
	cfg := ErrModelConfig{Words: 30, VocabSize: 40}
	vocab := map[string]bool{}
	for _, w := range errVocab(cfg.VocabSize) {
		vocab[w] = true
	}
	tokens := func(seed int64) map[string]bool {
		c := cfg
		c.Seed = seed
		truth, _, err := GenerateErrModel(c)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, tok := range strings.Fields(truth) {
			if !vocab[tok] {
				t.Fatalf("seed %d: token %q is not in the shared vocabulary", seed, tok)
			}
			out[tok] = true
		}
		return out
	}
	a, b := tokens(3), tokens(4)
	shared := 0
	for tok := range a {
		if b[tok] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("two documents share no tokens; the Zipf draw is not concentrating on the shared vocabulary")
	}
}

// TestErrModelOpensRecallGap checks the raw material of the benchmark:
// across a small corpus, hard positions and bursts make some MAP strings
// diverge from their ground truths — without that, MAP recall would be 1
// and the CI gate (MAP < Staccato) could never hold.
func TestErrModelOpensRecallGap(t *testing.T) {
	cases, err := ErrDocs(20, ErrModelConfig{Words: 12, Seed: 5}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for _, c := range cases {
		if c.Doc.MAP() != c.Truth {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("every MAP string equals its truth; the error model injected no effective noise")
	}
	if diverged == len(cases) {
		t.Log("every MAP diverged — harsh but not wrong at these rates")
	}
}

// TestErrModelConfigValidate checks Validate's bounds on configs that
// went through withDefaults, the form GenerateErrModel validates.
func TestErrModelConfigValidate(t *testing.T) {
	def := ErrModelConfig{}.withDefaults()
	t.Run("defaults", func(t *testing.T) {
		if err := def.Validate(); err != nil {
			t.Fatalf("defaults %+v rejected: %v", def, err)
		}
	})
	for _, tc := range []struct {
		name string
		edit func(*ErrModelConfig)
	}{
		{"zipf NaN", func(c *ErrModelConfig) { c.ZipfS = math.NaN() }},
		{"subrate out of range", func(c *ErrModelConfig) { c.SubRate = 1.5 }},
		{"burstsubrate out of range", func(c *ErrModelConfig) { c.BurstSubRate = -0.1 }},
		{"words negative", func(c *ErrModelConfig) { c.Words = -3 }},
		{"vocab over the cap", func(c *ErrModelConfig) { c.VocabSize = 99999 }},
		{"maxalts over the cap", func(c *ErrModelConfig) { c.MaxAlts = 9 }},
	} {
		cfg := def
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: %+v validated", tc.name, cfg)
		}
	}
}

// FuzzErrModelGenerate fuzzes the generator over every config field: a
// config Validate rejects must make GenerateErrModel fail, and a valid
// one must generate a deterministic transducer satisfying the model
// invariants.
func FuzzErrModelGenerate(f *testing.F) {
	for _, c := range []ErrModelConfig{
		{},
		{Words: 8, Seed: 3},
		{VocabSize: 50, ZipfS: 1.3},
		{SubRate: 0.5, BurstRate: 0.2, BurstLen: 4, BurstSubRate: 0.9},
		{MaxAlts: 5, Seed: -7},
		{Words: -1},
		{MaxAlts: 9},
		{Words: 9, VocabSize: 12},
		{Words: 12, Seed: 1, VocabSize: 200, ZipfS: 1.1, SubRate: 0.06, BurstRate: 0.03, BurstLen: 6, BurstSubRate: 0.45, MaxAlts: 3},
		{Words: 20, Seed: 9, VocabSize: 50, ZipfS: 1.4, SubRate: 0.1, BurstRate: 0.05, BurstLen: 8, BurstSubRate: 0.6, MaxAlts: 4},
		{ZipfS: math.NaN()},
	} {
		f.Add(c.Words, c.Seed, c.VocabSize, c.ZipfS, c.SubRate, c.BurstRate, c.BurstLen, c.BurstSubRate, c.MaxAlts)
	}
	f.Fuzz(func(t *testing.T, words int, seed int64, vocab int, zipf, subRate, burstRate float64, burstLen int, burstSubRate float64, maxAlts int) {
		cfg := ErrModelConfig{
			Words: words, Seed: seed, VocabSize: vocab, ZipfS: zipf,
			SubRate: subRate, BurstRate: burstRate, BurstLen: burstLen,
			BurstSubRate: burstSubRate, MaxAlts: maxAlts,
		}
		if verr := cfg.withDefaults().Validate(); verr != nil {
			if _, _, err := GenerateErrModel(cfg); err == nil {
				t.Fatalf("GenerateErrModel accepted %+v, which Validate rejects: %v", cfg, verr)
			}
			return
		}
		// Clamp the cost knobs (Validate already bounded them; this keeps
		// per-exec time low), then generate twice and check the machine.
		cfg.Words = cfg.Words%16 + 1
		cfg.VocabSize = cfg.VocabSize%32 + 1
		cfg.BurstLen = cfg.BurstLen%16 + 1
		truth, fst1, err := GenerateErrModel(cfg)
		if err != nil {
			t.Fatalf("valid config %+v failed to generate: %v", cfg, err)
		}
		truth2, fst2, err := GenerateErrModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if truth != truth2 || !reflect.DeepEqual(fst1, fst2) {
			t.Fatal("generation is not deterministic for a fixed config")
		}
		checkErrModelInvariants(t, truth, fst1)
	})
}

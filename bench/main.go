// Command bench is the repository's end-to-end benchmark: it loads an
// error-model corpus into an in-process staccatod (pkg/server over
// loopback HTTP), replays a fixed, seed-derived operation script against
// it, verifies the results against a reference computed from the raw
// store, and prints every metric by name and unit. README.md in this
// directory defines the workloads, the metrics and the protocol.
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is one run's inputs. The flags set workload, seed, seconds,
// trace, docs and out; the smoke test also shrinks the scripts.
type config struct {
	workload string
	seed     int64
	// seconds is the nominal length of the timed phases. It fixes the
	// pass counts (see passes), never a deadline: scripts are fixed
	// op counts so that counts and sizes repeat exactly.
	seconds int
	trace   bool
	docs    int
	out     string
	// opScale multiplies the ops per pass; 1 outside the smoke test.
	opScale float64
	// corruptReference makes the check pass compare against a damaged
	// reference, to prove that a mismatch is detected.
	corruptReference bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add counts one replayed pass's operations.
func (rep *report) add(w io.Writer, r passResult) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	if r.firstErr != nil {
		fmt.Fprintln(w, "failed operation:", r.firstErr)
	}
}

func main() {
	cfg := config{opScale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the operation script")
	flag.IntVar(&cfg.seconds, "seconds", 12, "nominal length of the timed phases; fixes the pass counts")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics instead")
	flag.IntVar(&cfg.docs, "docs", 8000, "corpus size")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for stores and trace files")
	flag.Parse()
	cfg.trace = trace != 0

	rep, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// passes turns the nominal length into the pass count of each timed
// phase: a pass is about half a second at one client and shorter in the
// throughput phase, so seconds passes of each fill about seconds seconds.
func (c config) passes() int { return max(1, c.seconds) }

func (c config) clients() int { return min(runtime.GOMAXPROCS(0), 4) }

func (c config) ops(n int) int { return max(2, int(float64(n)*c.opScale)) }

// inputs is everything derived from the seed before anything is timed.
type inputs struct {
	corpus []source
	pools  termPools
	script *script
}

func (c config) validate() error {
	if !slices.Contains(workloadNames, c.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	}
	if c.docs < 64 {
		return fmt.Errorf("-docs must be at least 64, got %d", c.docs)
	}
	return nil
}

// prepare synthesizes the corpus and writes the workload's script.
// passes is how many distinct passes mixed-rw needs.
func prepare(c config, passes int) (*inputs, error) {
	base := c.seed * seedStride
	corpus, err := synthesize(c.docs, base, docID)
	if err != nil {
		return nil, err
	}
	truth := make(map[string]string, len(corpus))
	truths := make([]string, len(corpus))
	for i, s := range corpus {
		truths[i] = s.truth
		truth[s.id] = s.truth
	}
	in := &inputs{corpus: corpus, pools: newTermPools(truths)}
	rng := rand.New(rand.NewSource(c.seed))
	sc := &script{truth: truth}
	switch c.workload {
	case "point-topk":
		sc.passes = pointScript(in.pools, rng, c.ops(pointOps))
	case "conj-topk":
		sc.passes = conjScript(in.pools, rng, c.ops(conjOps))
	case "scan":
		sc.passes = scanScript(in.pools, rng, c.ops(scanOps))
	case "mixed-rw":
		// The held-out pool takes the seeds just past the corpus's.
		held, err := synthesize(poolDocs, base+int64(c.docs), poolID)
		if err != nil {
			return nil, err
		}
		g := &mixedGen{rng: rng, pools: in.pools, truth: truth}
		for _, s := range held {
			d, err := buildDoc(s)
			if err != nil {
				return nil, err
			}
			g.pool = append(g.pool, d)
			g.ptext = append(g.ptext, s.truth)
		}
		for _, s := range corpus {
			g.live = append(g.live, s.id)
		}
		for range passes {
			p, err := g.pass(c.ops(mixedOps))
			if err != nil {
				return nil, err
			}
			sc.passes = append(sc.passes, p)
		}
	}
	in.script = sc
	return in, nil
}

// fingerprint prints what two runs must share to have had identical
// inputs on comparable machines.
func fingerprint(w io.Writer, c config, in *inputs) {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "fingerprint: commit=%s go=%s nproc=%d gomaxprocs=%d clients=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), c.clients())
	fmt.Fprintf(w, "fingerprint: workload=%s seed=%d docs=%d vocab=%d dial=(%d,%d) passes=1+%d+%d ops/pass=%d\n",
		c.workload, c.seed, c.docs, vocabSize, dialChunks, dialK, c.passes(), c.passes(), len(in.script.passes[0]))
	fmt.Fprintf(w, "fingerprint: script sha256=%s\n", in.script.sha256())
}

func run(w io.Writer, c config) (*report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.trace {
		return runTraced(w, c)
	}
	return runTimed(w, c)
}

// storeDir returns a fresh directory for one store, inside c.out.
func storeDir(c config, tag string) (string, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.out, fmt.Sprintf("store-%s-%s-", c.workload, tag))
}

// runTimed is the untraced run: it yields every end-to-end metric.
func runTimed(w io.Writer, c config) (*report, error) {
	passes := c.passes()
	wall := newStopwatch()
	in, err := prepare(c, 1+2*passes)
	if err != nil {
		return nil, err
	}
	wall.lap("prepare")
	fingerprint(w, c, in)
	sc := in.script
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Three set-ups into fresh stores; the phases run on the third.
	var svc *service
	var dir string
	var setups []float64
	if err := cal.mark(); err != nil {
		return nil, err
	}
	for i := range 3 {
		if dir, err = storeDir(c, fmt.Sprint("setup", i)); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var t setupTimes
		if svc, t, err = setUp(dir, in.corpus, sc.firstSearch()); err != nil {
			return nil, err
		}
		h, err := cal.section()
		if err != nil {
			svc.close()
			return nil, err
		}
		setups = append(setups, t.total().Seconds()/h)
		fmt.Fprintf(w, "set-up %d: %.3f s raw at host index %.3f (build %.3f, ingest %.3f, shutdown %.3f, reopen %.3f, first search %.3f)\n", i+1,
			t.total().Seconds(), h, t.build.Seconds(), t.ingest.Seconds(), t.shutdown.Seconds(), t.reopen.Seconds(), t.firstSearch.Seconds())
		if i < 2 {
			if err := svc.close(); err != nil {
				return nil, err
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			svc.close()
		}
	}()
	// The transducers are only needed to set up. Holding them (~100 MB)
	// slows every timed request through the garbage collector.
	in.corpus = nil
	runtime.GC()
	wall.lap("set-up")

	rep := &report{Metrics: map[string]metric{}}
	client := newClient(c.clients())
	defer client.CloseIdleConnections()
	// timed replays one pass between two calibration rounds.
	timed := func(pass, clients int) (passResult, float64, error) {
		r := replay(client, svc.url, sc.pass(pass), clients)
		rep.add(w, r)
		h, err := cal.section()
		return r, h, err
	}

	if err := cal.mark(); err != nil {
		return nil, err
	}
	if _, _, err := timed(0, 1); err != nil { // warm: caches fill, lazy set-up finishes
		return nil, err
	}
	lat := make([]passResult, passes)
	hosts := make([]float64, 0, 2*passes)
	samples := 0
	for i := range lat {
		var h float64
		if lat[i], h, err = timed(1+i, 1); err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
		samples += len(lat[i].searchMS)
	}
	// The tail percentile is the highest with at least ten of the phase's
	// samples beyond it, capped at p95 (README.md says why not p99); it is
	// read per pass, so that one disturbed pass cannot supply the whole
	// tail.
	tailQ, tailPct := 1.0, 100
	for _, pct := range []int{95, 90, 75} {
		if samples*(100-pct) >= 10*100 {
			tailQ, tailPct = float64(pct)/100, pct
			break
		}
	}
	var p50s, tails, rawP50s, writes []float64
	for i, r := range lat {
		rawP50s = append(rawP50s, median(r.searchMS))
		p50s = append(p50s, median(r.searchMS)/hosts[i])
		tails = append(tails, quantile(r.searchMS, tailQ)/hosts[i])
		writes = append(writes, r.writeMS...)
	}
	var qps, rawQPS []float64
	for i := range passes {
		r, h, err := timed(1+passes+i, c.clients())
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
		rawQPS = append(rawQPS, float64(len(r.searchMS))/r.wall.Seconds())
		qps = append(qps, float64(len(r.searchMS))/r.wall.Seconds()*h)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	wall.lap("phases")

	stats, err := fetchStats(client, svc.url)
	if err != nil {
		return nil, err
	}
	// A request the server refused was already counted as failed by the
	// client that got the 429; the server's own count must agree.
	if stats.Server.Rejected != 0 {
		fmt.Fprintf(w, "server rejected %d requests\n", stats.Server.Rejected)
	}

	answers, err := ask(client, svc.url, checkSpecs(sc, in.pools))
	if err != nil {
		return nil, err
	}
	closed = true
	if err := svc.close(); err != nil {
		return nil, err
	}
	indexBytes, err := fileSize(filepath.Join(dir, "INDEX"))
	if err != nil {
		return nil, err
	}
	docs, err := loadDocs(dir)
	if err != nil {
		return nil, err
	}
	bad, mismatch := verify(answers, docs, c.corruptReference)
	rep.Attempted += len(answers)
	rep.Failed += bad
	if mismatch != nil {
		fmt.Fprintln(w, "result mismatch:", mismatch)
	}
	rep.Correct = rep.Failed == 0 && stats.Server.Rejected == 0
	wall.lap("check")

	live := float64(stats.DB.Docs)
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	set("setup_s", median(setups), "s")
	set("search_p50_ms", median(p50s), "ms")
	set("search_tail_ms", median(tails), "ms")
	set("search_qps", median(qps), "1/s")
	set("recall", recallOf(answers, sc.truth), "ratio")
	set("store_bytes_per_doc", float64(stats.DB.DiskBytes)/live, "B")
	set("index_bytes_per_doc", float64(indexBytes)/live, "B")
	set("heap_live_mb", float64(mem.HeapAlloc)/(1<<20), "MB")

	fmt.Fprintf(w, "per pass: host index %.3f\nper pass: raw search p50 ms %.4f\nper pass: raw search qps %.1f\n", hosts, rawP50s, rawQPS)
	fmt.Fprintf(w, "raw medians: search_p50_ms=%.4f search_qps=%.1f at host index %.3f; write_p50_ms=%.4f raw over %d writes\n",
		median(rawP50s), median(rawQPS), median(hosts), median(writes), len(writes))
	fmt.Fprintf(w, "search samples: %d in the latency phase over %d passes; search_tail_pct=p%d\n", samples, passes, tailPct)
	printMetrics(w, rep, endToEndNames)
	fmt.Fprintln(w, wall)
	return rep, nil
}

var endToEndNames = []string{"setup_s", "search_p50_ms", "search_tail_ms", "search_qps", "recall",
	"store_bytes_per_doc", "index_bytes_per_doc", "heap_live_mb"}

func printMetrics(w io.Writer, rep *report, names []string) {
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
}

// stopwatch records how the run's own wall time divides, so a run that
// nears the driver's time limit shows where it went.
type stopwatch struct {
	last time.Time
	laps []string
}

func newStopwatch() *stopwatch { return &stopwatch{last: time.Now()} }

func (s *stopwatch) lap(name string) {
	now := time.Now()
	s.laps = append(s.laps, fmt.Sprintf("%s=%.1fs", name, now.Sub(s.last).Seconds()))
	s.last = now
}

func (s *stopwatch) String() string { return "wall: " + strings.Join(s.laps, " ") }

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	DB struct {
		Docs          int   `json:"docs"`
		DiskBytes     int64 `json:"disk_bytes"`
		IndexGrams    int   `json:"index_grams"`
		IndexOverflow int   `json:"index_overflow_docs"`
	} `json:"db"`
	Server struct {
		Rejected   int64 `json:"rejected"`
		QueryCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"query_cache"`
	} `json:"server"`
}

func fetchStats(c *http.Client, base string) (serverStats, error) {
	var st serverStats
	body, err := do(c, base, op{method: http.MethodGet, path: "/v1/stats"}, true)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

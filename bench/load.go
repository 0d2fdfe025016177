package main

import (
	"net/http"
	"slices"
	"sync"
	"time"
)

// passResult is what one replay of a pass measured. Latencies are in
// milliseconds, successful requests only.
type passResult struct {
	searchMS  []float64
	writeMS   []float64
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
}

// replay runs one pass closed-loop: ops are dealt round-robin to clients
// callers, each of which waits for a reply before sending its next op,
// the way callers of staccatod do.
func replay(c *http.Client, base string, ops []op, clients int) passResult {
	parts := make([]passResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &parts[k]
			for i := k; i < len(ops); i += clients {
				t0 := time.Now()
				_, err := do(c, base, ops[i], false)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				r.attempted++
				switch {
				case err != nil:
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				case ops[i].search != nil:
					r.searchMS = append(r.searchMS, ms)
				default:
					r.writeMS = append(r.writeMS, ms)
				}
			}
		}()
	}
	wg.Wait()
	total := passResult{wall: time.Since(start)}
	for _, p := range parts {
		total.searchMS = append(total.searchMS, p.searchMS...)
		total.writeMS = append(total.writeMS, p.writeMS...)
		total.attempted += p.attempted
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// quantile returns the q-quantile of values by nearest rank; 0 when
// there are none.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(values []float64) float64 { return quantile(values, 0.5) }

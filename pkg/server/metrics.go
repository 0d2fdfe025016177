package server

import (
	"fmt"
	"sync/atomic"
	"time"
)

// latencyBounds are the histogram bucket upper bounds. The spread covers
// everything from a cache-hit point lookup (<1ms) to a corpus scan under
// load; requests slower than the last bound land in the +Inf bucket.
var latencyBounds = []time.Duration{
	1 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	5 * time.Second,
}

// latencyHist is a fixed-bucket latency histogram, which snapshots to a
// JSON-friendly shape. Buckets are cumulative ("le" = less-than-or-equal),
// Prometheus-style, so p50/p99 estimates can be read off the counts.
type latencyHist struct {
	counts []atomic.Int64 // len(latencyBounds)+1; last is +Inf
	total  atomic.Int64
	sumUS  atomic.Int64 // microseconds, so one int64 carries the sum exactly
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

func (h *latencyHist) observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// histSnapshot is the histogram's JSON shape: cumulative bucket counts
// keyed by their upper bound in milliseconds.
type histSnapshot struct {
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
	Buckets map[string]int64 `json:"buckets"`
}

func (h *latencyHist) snapshot() histSnapshot {
	s := histSnapshot{
		Count:   h.total.Load(),
		SumMS:   float64(h.sumUS.Load()) / 1000,
		Buckets: make(map[string]int64, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[bucketLabel(i)] = cum
	}
	return s
}

func bucketLabel(i int) string {
	if i >= len(latencyBounds) {
		return "le_inf"
	}
	ms := latencyBounds[i].Seconds() * 1000
	return fmt.Sprintf("le_%gms", ms)
}

// endpointMetrics instruments one endpoint: request count, error count
// (status >= 400, overload rejections included), and a latency histogram.
type endpointMetrics struct {
	count   atomic.Int64
	errors  atomic.Int64
	latency *latencyHist
}

// endpointSnapshot is one endpoint's branch of the /v1/stats response.
type endpointSnapshot struct {
	Count   int64        `json:"count"`
	Errors  int64        `json:"errors"`
	Latency histSnapshot `json:"latency"`
}

// metrics is what the server counts itself: the requests it rejected,
// and each endpoint's requests, errors and latency. Every other number
// the server reports is read from its owner when a snapshot is taken
// (Server.stats).
type metrics struct {
	rejected  atomic.Int64
	endpoints map[string]*endpointMetrics
}

func newMetrics(endpointNames []string) *metrics {
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointMetrics{latency: newLatencyHist()}
	}
	return m
}

// record books one finished request against its endpoint.
func (m *metrics) record(endpoint string, status int, elapsed time.Duration) {
	em, ok := m.endpoints[endpoint]
	if !ok {
		return
	}
	em.count.Add(1)
	if status >= 400 {
		em.errors.Add(1)
	}
	em.latency.observe(elapsed)
}

// requestsSnapshot renders every endpoint's counters.
func (m *metrics) requestsSnapshot() map[string]endpointSnapshot {
	out := make(map[string]endpointSnapshot, len(m.endpoints))
	for name, em := range m.endpoints {
		out[name] = endpointSnapshot{
			Count:   em.count.Load(),
			Errors:  em.errors.Load(),
			Latency: em.latency.snapshot(),
		}
	}
	return out
}

package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a flat metrics store: monotonic int64 counters (Add) that
// publishers may also overwrite wholesale (Set, for pull-style snapshots of
// layer stats), and float64 gauges. Names are dotted paths like
// "gpu.FLBooster-256.launches". A nil *Registry is a valid disabled
// registry whose methods do nothing and read as zero.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Add increments a counter.
func (g *Registry) Add(name string, delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.counters[name] += delta
	g.mu.Unlock()
}

// Set overwrites a counter with an absolute value — the pull-publishing
// path layers use to snapshot their own stats into the registry.
func (g *Registry) Set(name string, v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.counters[name] = v
	g.mu.Unlock()
}

// SetMax raises a counter to v if v is larger — a high-water mark (the
// journal's latest durable round, peak queue depths). Lower values are
// ignored so publishers may report out of order.
func (g *Registry) SetMax(name string, v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if v > g.counters[name] {
		g.counters[name] = v
	}
	g.mu.Unlock()
}

// SetGauge overwrites a gauge.
func (g *Registry) SetGauge(name string, v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.gauges[name] = v
	g.mu.Unlock()
}

// Counter reads a counter (0 when absent or g is nil).
func (g *Registry) Counter(name string) int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counters[name]
}

// WriteText dumps the registry as sorted "counter <name> <value>" /
// "gauge <name> <value>" lines — the flbench/flserver metrics dump format.
func (g *Registry) WriteText(w io.Writer) error {
	var b bytes.Buffer
	if g != nil {
		g.mu.Lock()
		cnames := make([]string, 0, len(g.counters))
		for n := range g.counters {
			cnames = append(cnames, n)
		}
		gnames := make([]string, 0, len(g.gauges))
		for n := range g.gauges {
			gnames = append(gnames, n)
		}
		sort.Strings(cnames)
		sort.Strings(gnames)
		for _, n := range cnames {
			fmt.Fprintf(&b, "counter %s %d\n", n, g.counters[n])
		}
		for _, n := range gnames {
			fmt.Fprintf(&b, "gauge %s %g\n", n, g.gauges[n])
		}
		g.mu.Unlock()
	}
	_, err := w.Write(b.Bytes())
	return err
}

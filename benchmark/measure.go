package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flbooster/internal/fl"
)

// options is what the command line fixes for every workload of a run.
type options struct {
	seed    uint64
	seconds float64 // timed-step budget per workload
	steps   int     // > 0 pins the timed step count instead
	traced  bool
	smoke   bool
	outDir  string
}

// result is one workload's outcome: every metric it computed by name, and
// how many timed steps ran and failed.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Labels are non-numeric findings (the dominant phase, the first failure).
	Labels map[string]string `json:"labels,omitempty"`
}

// setupRefSeeds are the seeds setup_s is measured on: an untraced run sets
// the workload up on the reference seeds in turn, reports the median, and
// only then sets up the instance its steps run on from the run's own seed.
// Key generation is a prime search whose time swings tenfold with the seed
// and says nothing about the code, so the set-up clock runs on fixed keys.
// Every workload makes one pass over the reference seeds; one whose set-up
// is short makes whole further passes until setupBudget is spent or
// setupMaxPasses made, so a 0.1 s set-up is a median of a dozen samples, not
// of two, and every seed is always sampled equally often.
var setupRefSeeds = []uint64{1, 2}

const (
	setupBudget    = 1500 * time.Millisecond
	setupMaxPasses = 6
)

// Counter indices: one flat vector holds every public counter the benchmark
// reads, so a delta over any interval is one subtraction.
const (
	cHEWall = iota
	cHESim
	cHEOps
	cInstances
	cCommSim
	cCommBytes
	cCommMsgs
	cRetryMsgs
	cOtherWall
	cEncodeWall
	cCiphertexts
	cPlainvals
	cSimTotal // TotalSimOverlapped minus OtherWall, its one host-clock term
	cLaunches
	cKernelWall
	cSimCompute
	cSimTransfer
	cH2D
	cD2H
	cUtilSum
	cUtilCount
	cMallocs
	cTotalAlloc
	cGCPause
	nCounters
)

// counters is a reading of every public report at one instant: times in
// seconds, the rest as counts.
type counters [nCounters]float64

// readCounters reads fl.CostSnapshot, gpu.Stats and runtime.MemStats.
func readCounters(ctx *fl.Context) (c counters, heapInuse uint64) {
	s := ctx.Costs.Snapshot()
	c[cHEWall] = s.HEWall.Seconds()
	c[cHESim] = s.HESim.Seconds()
	c[cHEOps] = float64(s.HEOps)
	c[cInstances] = float64(s.Instances)
	c[cCommSim] = s.CommSim.Seconds()
	c[cCommBytes] = float64(s.CommBytes)
	c[cCommMsgs] = float64(s.CommMsgs)
	c[cRetryMsgs] = float64(s.RetryMsgs)
	c[cOtherWall] = s.OtherWall.Seconds()
	c[cEncodeWall] = s.EncodeWall.Seconds()
	c[cCiphertexts] = float64(s.Ciphertexts)
	c[cPlainvals] = float64(s.Plainvals)
	c[cSimTotal] = (s.TotalSimOverlapped() - s.OtherWall).Seconds()
	if ctx.Device != nil {
		d := ctx.Device.Stats()
		c[cLaunches] = float64(d.KernelLaunches)
		c[cKernelWall] = d.WallKernelTime.Seconds()
		c[cSimCompute] = d.SimComputeTime.Seconds()
		c[cSimTransfer] = d.SimTransferTime.Seconds()
		c[cH2D] = float64(d.BytesHostToDev)
		c[cD2H] = float64(d.BytesDevToHost)
		c[cUtilSum] = d.UtilizationSum
		c[cUtilCount] = float64(d.UtilizationCount)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c[cMallocs] = float64(m.Mallocs)
	c[cTotalAlloc] = float64(m.TotalAlloc)
	c[cGCPause] = float64(m.PauseTotalNs) / 1e9
	return c, m.HeapInuse
}

func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c *counters) add(b counters) {
	for i := range c {
		c[i] += b[i]
	}
}

// runWorkload sets the workload up, runs its timed steps and turns what it
// saw into metrics: the end-to-end ones untraced, the per-layer ones traced.
func runWorkload(s spec, o options) (*result, error) {
	res := &result{Workload: s.name, Metrics: map[string]float64{}, Labels: map[string]string{}}
	var tr *tracer
	var setupS []float64
	if o.traced {
		tr = newTracer()
	} else if !o.smoke {
		var spent time.Duration
		for pass := 0; pass == 0 || (spent < setupBudget && pass < setupMaxPasses); pass++ {
			for _, seed := range setupRefSeeds {
				ref, err := newInstance(s, seed, nil)
				if err != nil {
					return nil, fmt.Errorf("%s: set-up on reference seed %d: %w", s.name, seed, err)
				}
				ref.close()
				setupS = append(setupS, ref.setup.Seconds())
				spent += ref.setup
			}
		}
	}
	in, err := newInstance(s, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	defer in.close()
	if setupS == nil { // traced and smoke passes time the one set-up they do
		setupS = []float64{in.setup.Seconds()}
	}
	res.Metrics["setup_s"] = median(setupS)

	// Garbage from the set-ups is collected before the clock starts, so the
	// timed steps pay only for their own allocation.
	runtime.GC()
	var lay *layers
	if o.traced {
		lay = newLayers(in, tr)
	}
	var walls, tracedWalls, untracedWalls []float64
	start, _ := readCounters(in.ctx)
	loop := time.Now()
	for i := 0; ; i++ {
		if o.steps > 0 {
			if i >= o.steps {
				break
			}
		} else if i >= s.minSteps && time.Since(loop).Seconds() >= o.seconds {
			break
		}
		// A traced pass alternates bare and traced steps, so the tracing
		// overhead is a ratio of interleaved samples, not of two runs.
		var out stepOut
		if o.traced && i%2 == 1 {
			out = lay.tracedStep(i)
			tracedWalls = append(tracedWalls, out.wall.Seconds())
		} else {
			out = in.step()
			untracedWalls = append(untracedWalls, out.wall.Seconds())
		}
		walls = append(walls, out.wall.Seconds())
		res.Attempted++
		res.Metrics["models.loss_bias"] = out.bias
		if out.err != nil {
			res.Failed++
			if _, seen := res.Labels["first_failure"]; !seen {
				res.Labels["first_failure"] = fmt.Sprintf("step %d: %v", i, out.err)
			}
		}
	}
	end, _ := readCounters(in.ctx)
	d := end.sub(start)
	n := float64(res.Attempted)

	res.Metrics["failed_share"] = float64(res.Failed) / n
	res.Metrics["step_sim_s"] = d[cSimTotal] / n
	res.Metrics["wire_bytes_per_step"] = d[cCommBytes] / n
	res.Metrics["alloc_mb_per_step"] = d[cTotalAlloc] / n / 1e6
	stepWallMetrics(res.Metrics, walls, d[cInstances])
	if !o.traced {
		return res, nil
	}
	if len(tracedWalls) > 0 && len(untracedWalls) > 0 {
		res.Metrics["trace.overhead_ratio"] = median(tracedWalls) / median(untracedWalls)
	}
	if err := lay.finish(res, o.smoke); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+s.name+".json")); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", s.name, err)
	}
	return res, nil
}

// stepWallMetrics reports the host clock over a run's step samples: the
// median, the 90th percentile where enough samples lie beyond it, and
// HE-protected values per host second.
func stepWallMetrics(m map[string]float64, walls []float64, instances float64) {
	var total float64
	for _, w := range walls {
		total += w
	}
	m["step.samples"] = float64(len(walls))
	m["step.wall_s"] = median(walls)
	if p, ok := tailPercentile(walls); ok {
		m["step.wall_p90_s"] = p
	}
	if total > 0 {
		m["step.values_per_wall_s"] = instances / total
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile returns the 90th percentile (nearest rank) once at least
// ten samples lie beyond it; with fewer it reports nothing rather than a
// maximum dressed up as a percentile.
func tailPercentile(xs []float64) (float64, bool) {
	if len(xs) < p90MinSamples {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.9*float64(len(s))))-1], true
}

package bench

import (
	"testing"
	"time"

	"flbooster/internal/gpu"
)

// TestAblationBSchedule pins Ablation B's two helpers: chunkStages splits a
// chunk's measured device time into the three queues without losing any of
// it, and makespan's double-buffered schedule reaches the Fig. 4 steady
// states, gates each upload on the kernel two chunks back, and is never
// slower than the sequential sum nor faster than the busiest queue.
func TestAblationBSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	repeat := func(n int, c stages) []stages {
		out := make([]stages, n)
		for i := range out {
			out[i] = c
		}
		return out
	}
	// bounds: no overlap can beat the busiest queue, and overlap never costs.
	bounds := func(t *testing.T, chunks []stages, span, seq time.Duration) {
		t.Helper()
		var up, kernel, down time.Duration
		for _, c := range chunks {
			up, kernel, down = up+c.h2d, kernel+c.kernel, down+c.d2h
		}
		if busiest := max(up, kernel, down); span < busiest || span > seq {
			t.Fatalf("span %v outside [busiest queue %v, sequential %v]", span, busiest, seq)
		}
	}

	dev := gpu.MustNew(gpu.SmallTestDevice(), true)
	measure := func(work func()) (stages, time.Duration) {
		before := dev.Stats()
		work()
		after := dev.Stats()
		return chunkStages(before, after), after.SimTime() - before.SimTime()
	}

	t.Run("latency-only copies", func(t *testing.T) {
		// No bytes move, so there is no byte share to split by: the two copy
		// engines take half the transfer each.
		st, delta := measure(func() { dev.CopyToDevice(0); dev.CopyFromDevice(0) })
		if delta <= 0 || st != (stages{h2d: delta / 2, d2h: delta - delta/2}) {
			t.Fatalf("latency-only copies of %v split as %+v, want half on each engine", delta, st)
		}
	})
	t.Run("device chunk", func(t *testing.T) {
		st, delta := measure(func() {
			dev.CopyToDevice(1 << 16)
			k := gpu.Kernel{Name: "busy", Items: 64, WordOps: 1 << 16, Body: gpu.LaneFunc(func(int) {})}
			if _, err := dev.Launch(k); err != nil {
				t.Fatal(err)
			}
			dev.CopyFromDevice(1 << 15)
		})
		if st.h2d+st.kernel+st.d2h != delta || st.h2d <= st.d2h || st.kernel <= 0 {
			t.Fatalf("stages %+v: want the SimTime delta %v, the larger copy on h2d and the launch on the kernel", st, delta)
		}
	})

	cases := []struct {
		name      string
		chunks    []stages
		span, seq time.Duration
	}{
		// One upload fills, the kernels run back to back, one download drains.
		{"compute-bound", repeat(64, stages{ms(1), ms(3), ms(1)}), ms(1 + 3*64 + 1), ms(5 * 64)},
		// The uploads run back to back; the last kernel and download trail them.
		{"transfer-bound", repeat(32, stages{ms(4), ms(1), ms(2)}), ms(4*32 + 1 + 2), ms(7 * 32)},
		// The third upload waits for the first kernel to free its buffer; with
		// a buffer per chunk it would end at 15 and the span at 20.
		{"depth-2 upload gate", []stages{{0, ms(10), 0}, {0, ms(10), 0}, {ms(15), 0, 0}}, ms(25), ms(35)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			span, seq := makespan(c.chunks)
			if span != c.span || seq != c.seq {
				t.Fatalf("makespan = (%v, %v), want (%v, %v)", span, seq, c.span, c.seq)
			}
			bounds(t, c.chunks, span, seq)
		})
	}
	t.Run("bounds sweep", func(t *testing.T) {
		durs := []time.Duration{0, ms(1), ms(7), ms(50)}
		var mixed []stages
		for _, h := range durs {
			for _, k := range durs {
				for _, d := range durs {
					uniform := repeat(9, stages{h, k, d})
					span, seq := makespan(uniform)
					bounds(t, uniform, span, seq)
					mixed = append(mixed, stages{h, k, d})
				}
			}
		}
		span, seq := makespan(mixed)
		bounds(t, mixed, span, seq)
	})
}

package gpu

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestStreamInOrderAndDeps(t *testing.T) {
	a := NewStream("a")
	b := NewStream("b")
	e1 := a.Schedule(ms(10))
	if e1.At != ms(10) {
		t.Fatalf("first event at %v, want 10ms", e1.At)
	}
	// Same stream serializes even with no dependency.
	if e2 := a.Schedule(ms(5)); e2.At != ms(15) {
		t.Fatalf("in-order event at %v, want 15ms", e2.At)
	}
	// A dependent event on another stream waits for the dependency.
	if e3 := b.Schedule(ms(1), e1); e3.At != ms(11) {
		t.Fatalf("dependent event at %v, want 11ms", e3.At)
	}
	// An independent stream starts at its own clock.
	c := NewStream("c")
	if e4 := c.Schedule(ms(3)); e4.At != ms(3) {
		t.Fatalf("independent event at %v, want 3ms", e4.At)
	}
	// Negative durations clamp to zero instead of rewinding the clock.
	if e5 := c.Schedule(-ms(5)); e5.At != ms(3) {
		t.Fatalf("negative-duration event at %v, want 3ms", e5.At)
	}
}

// TestPipelineSteadyState checks the Fig. 4 shape on the measured pipeline:
// with many uniform chunks the critical path approaches
// max(transfer, compute) per chunk, plus one fill of the other stages.
func TestPipelineSteadyState(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	const chunks = 64
	for i := 0; i < chunks; i++ {
		p.Chunk(ms(1), ms(3), ms(1)) // compute-bound chunk
	}
	span, seq := p.Span(), p.SeqTime()
	if seq != ms(5*chunks) {
		t.Fatalf("sequential sum %v, want %v", seq, ms(5*chunks))
	}
	// Steady state: one H2D fill + chunks × compute + one D2H drain.
	want := ms(1) + ms(3*chunks) + ms(1)
	if span != want {
		t.Fatalf("compute-bound span %v, want %v", span, want)
	}
	if span >= seq {
		t.Fatalf("pipelining should beat the sequential sum: %v vs %v", span, seq)
	}
}

// TestPipelineTransferBound checks the other steady state: when transfers
// dominate, the span approaches the H2D stream total plus fills, and the
// double-buffer dependency never lets uploads run unboundedly ahead.
func TestPipelineTransferBound(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	const chunks = 32
	for i := 0; i < chunks; i++ {
		p.Chunk(ms(4), ms(1), ms(2))
	}
	// H2D dominates: span = chunks×4 (uploads back-to-back) + kernel + D2H
	// of the last chunk.
	want := ms(4*chunks) + ms(1) + ms(2)
	if got := p.Span(); got != want {
		t.Fatalf("transfer-bound span %v, want %v", got, want)
	}
}

// TestPipelineDoubleBuffering: with depth 2 and a slow kernel, chunk c's
// upload must wait for kernel c-2, so the H2D stream is gated by compute
// instead of racing ahead through unlimited buffers.
func TestPipelineDoubleBuffering(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	const chunks = 10
	for i := 0; i < chunks; i++ {
		p.Chunk(ms(1), ms(10), ms(1))
	}
	// Kernel stream: fill (1ms) + 10 kernels back-to-back.
	wantSpan := ms(1) + ms(10*chunks) + ms(1)
	if got := p.Span(); got != wantSpan {
		t.Fatalf("double-buffered span %v, want %v", got, wantSpan)
	}
	// The upload of the last chunk cannot have finished before kernel
	// chunks-2 completed: h2d clock ≥ fill + (chunks-2) kernels + upload.
	minH2D := ms(1) + ms(10*(chunks-2)) + ms(1)
	if got := p.h2d.Clock(); got < minH2D {
		t.Fatalf("H2D stream ran ahead of the buffer budget: %v < %v", got, minH2D)
	}
}

func TestPipelineNeverExceedsSequential(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	durs := []time.Duration{0, ms(1), ms(7), ms(50)}
	for _, h := range durs {
		for _, k := range durs {
			for _, d := range durs {
				p := dev.NewPipeline(2)
				for i := 0; i < 9; i++ {
					p.Chunk(h, k, d)
				}
				if p.Span() > p.SeqTime() {
					t.Fatalf("pipeline slower than sequential at h=%v k=%v d=%v: %v > %v",
						h, k, d, p.Span(), p.SeqTime())
				}
				// Lower bound: the busiest stream.
				low := maxDur(9*h, maxDur(9*k, 9*d))
				if p.Span() < low {
					t.Fatalf("span %v below busiest stream %v", p.Span(), low)
				}
			}
		}
	}
}

// TestPipelineEndMeasuresDevice brackets real device work with Begin/End and
// checks the measured chunk matches the device's sequential counters, and
// that Close accrues the stream stats.
func TestPipelineEndMeasuresDevice(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	var seqSum time.Duration
	for i := 0; i < 4; i++ {
		before := dev.Stats()
		p.Begin()
		dev.CopyToDevice(1 << 16)
		if _, err := dev.Launch(Kernel{Name: "busy", Items: 64, WordOps: 1 << 16}.over(func(int) {})); err != nil {
			t.Fatal(err)
		}
		dev.CopyFromDevice(1 << 15)
		seq, overlapped := p.End()
		after := dev.Stats()
		wantSeq := after.SimTime() - before.SimTime()
		if seq != wantSeq {
			t.Fatalf("chunk %d: measured seq %v, want device delta %v", i, seq, wantSeq)
		}
		if overlapped < 0 || overlapped > seq {
			t.Fatalf("chunk %d: overlapped %v outside [0, %v]", i, overlapped, seq)
		}
		seqSum += seq
	}
	if p.SeqTime() != seqSum {
		t.Fatalf("pipeline seq %v, want %v", p.SeqTime(), seqSum)
	}
	span := p.Span()
	p.Close()
	p.Close() // idempotent
	st := dev.Stats()
	if st.SimStreamTime != span || st.SimStreamSeqTime != seqSum {
		t.Fatalf("stream stats (%v, %v), want (%v, %v)",
			st.SimStreamTime, st.SimStreamSeqTime, span, seqSum)
	}
	if st.StreamChunks != 4 || st.StreamOps != 1 {
		t.Fatalf("stream counters chunks=%d ops=%d, want 4 and 1", st.StreamChunks, st.StreamOps)
	}
	if ov := st.SimTimeOverlapped(); ov > st.SimTime() || ov != st.SimTime()-seqSum+span {
		t.Fatalf("overlapped total %v inconsistent with seq %v stream (%v, %v)",
			ov, st.SimTime(), seqSum, span)
	}
}

// TestPipelineEndWithoutBegin is a no-op rather than a bogus chunk.
func TestPipelineEndWithoutBegin(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	if seq, ov := p.End(); seq != 0 || ov != 0 || p.Chunks() != 0 {
		t.Fatalf("unmatched End scheduled a chunk: seq=%v ov=%v chunks=%d", seq, ov, p.Chunks())
	}
	p.Close() // empty close must not touch device stats
	if st := dev.Stats(); st.StreamOps != 0 {
		t.Fatalf("empty pipeline counted as a stream op")
	}
}

// TestPipelineEndSplitsLatencyOnlyTransfer: copies that move zero bytes
// still cost the fixed transfer latency. End used to split transfer time by
// byte share and silently dump the whole thing on D2H when no bytes moved;
// it must charge the two copy engines evenly instead.
func TestPipelineEndSplitsLatencyOnlyTransfer(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	before := dev.Stats()
	p.Begin()
	dev.CopyToDevice(0) // latency-only staging copies
	dev.CopyFromDevice(0)
	seq, _ := p.End()
	transfer := dev.Stats().SimTransferTime - before.SimTransferTime
	if transfer <= 0 {
		t.Fatal("latency-only copies accrued no transfer time")
	}
	if seq != transfer {
		t.Fatalf("seq %v, want the accrued transfer %v", seq, transfer)
	}
	h2d, _, d2h := p.StreamClocks()
	// The kernel stage is empty, so the D2H stage starts when H2D finishes:
	// h2d clock = the H2D half, d2h clock = the full transfer. Under the
	// old split h2d was 0 and the whole transfer landed on D2H.
	if h2d != transfer/2 {
		t.Fatalf("h2d engine charged %v, want half the transfer (%v)", h2d, transfer/2)
	}
	if d2h != transfer {
		t.Fatalf("d2h clock %v, want %v (H2D half + D2H half)", d2h, transfer)
	}
	p.Close()
}

// TestPipelineRefusesSchedulingAfterClose: Close charges the pipeline's
// span to the device, so later Begin/Chunk/End calls must not mutate the
// already-charged stream clocks — they are refused and counted as misuses.
func TestPipelineRefusesSchedulingAfterClose(t *testing.T) {
	dev := MustNew(SmallTestDevice(), true)
	p := dev.NewPipeline(2)
	p.Chunk(time.Millisecond, 2*time.Millisecond, time.Millisecond)
	p.Close()
	span, seq, chunks := p.Span(), p.SeqTime(), p.Chunks()
	devStream, devChunks := dev.Stats().SimStreamTime, dev.Stats().StreamChunks

	if ov := p.Chunk(time.Second, time.Second, time.Second); ov != 0 {
		t.Fatalf("post-Close Chunk returned %v, want 0", ov)
	}
	p.Begin()
	dev.CopyToDevice(1 << 10)
	if s, ov := p.End(); s != 0 || ov != 0 {
		t.Fatalf("post-Close Begin/End measured (%v, %v), want zeros", s, ov)
	}
	if p.Span() != span || p.SeqTime() != seq || p.Chunks() != chunks {
		t.Fatalf("post-Close scheduling mutated charged clocks: span %v→%v seq %v→%v chunks %d→%d",
			span, p.Span(), seq, p.SeqTime(), chunks, p.Chunks())
	}
	if st := dev.Stats(); st.SimStreamTime != devStream || st.StreamChunks != devChunks {
		t.Fatalf("device stream accounting changed after Close: %v/%d → %v/%d",
			devStream, devChunks, st.SimStreamTime, st.StreamChunks)
	}
	if p.Misuses() != 3 {
		t.Fatalf("Misuses = %d, want 3 (Chunk, Begin, End)", p.Misuses())
	}
}

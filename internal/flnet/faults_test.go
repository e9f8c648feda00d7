package flnet

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestChaosTransportSendFailure(t *testing.T) {
	inner := NewSimTransport(GigabitEthernet(), "a", "b")
	ft := NewChaosTransport(inner, ChaosConfig{FailSendAt: 2})
	if err := ft.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	err := ft.Send(Message{From: "a", To: "b"})
	if err == nil || !strings.Contains(err.Error(), "injected send failure") {
		t.Fatalf("second send should fail with the injected error, got %v", err)
	}
	// Third send passes again (the fault fires once).
	if err := ft.Send(Message{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	if sends := ft.Stats().Sent; sends != 3 {
		t.Fatalf("send count = %d", sends)
	}
}

func TestChaosTransportRecvFailure(t *testing.T) {
	inner := NewSimTransport(GigabitEthernet(), "a", "b")
	ft := NewChaosTransport(inner, ChaosConfig{FailRecvAt: 1})
	if err := ft.Send(Message{From: "a", To: "b", Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ft.Recv("b"); err == nil {
		t.Fatal("first recv should fail")
	}
	msg, err := ft.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "x" {
		t.Fatal("message lost after injected failure")
	}
}

func TestChaosTransportDropKind(t *testing.T) {
	inner := NewSimTransport(GigabitEthernet(), "a", "b")
	ft := NewChaosTransport(inner, ChaosConfig{DropKind: "grads"})
	if err := ft.Send(Message{From: "a", To: "b", Kind: "grads"}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(Message{From: "a", To: "b", Kind: "agg"}); err != nil {
		t.Fatal(err)
	}
	msg, err := ft.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "agg" {
		t.Fatalf("dropped message was delivered: %q", msg.Kind)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ft.Close(); err == nil {
		t.Fatal("double close should propagate from the inner transport")
	}
}

func TestChaosTransportDropFrom(t *testing.T) {
	inner := NewSimTransport(GigabitEthernet(), "a", "b", "c")
	ft := NewChaosTransport(inner, ChaosConfig{DropFrom: "a", DropKind: "grads"})
	// Matching both (from a, kind grads): dropped.
	if err := ft.Send(Message{From: "a", To: "c", Kind: "grads"}); err != nil {
		t.Fatal(err)
	}
	// Matching only one of the two: delivered.
	if err := ft.Send(Message{From: "a", To: "c", Kind: "agg"}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(Message{From: "b", To: "c", Kind: "grads"}); err != nil {
		t.Fatal(err)
	}
	first, err := ft.Recv("c")
	if err != nil || first.From != "a" || first.Kind != "agg" {
		t.Fatalf("first delivered = %+v, %v", first, err)
	}
	second, err := ft.Recv("c")
	if err != nil || second.From != "b" {
		t.Fatalf("second delivered = %+v, %v", second, err)
	}
}

func chaosRun(t *testing.T, cfg ChaosConfig, n int) ([]uint64, ChaosStats) {
	t.Helper()
	inner := NewSimTransport(GigabitEthernet(), "a", "b")
	ct := NewChaosTransport(inner, cfg)
	for i := 0; i < n; i++ {
		err := ct.Send(Message{From: "a", To: "b", Round: uint64(i + 1)})
		if failed := int64(i+1) == cfg.FailSendAt; failed != (err != nil) {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	var got []uint64
	for {
		msg, err := ct.RecvTimeout("b", 20*time.Millisecond)
		if err != nil {
			break
		}
		got = append(got, msg.Round)
	}
	ct.Close()
	return got, ct.Stats()
}

func TestChaosTransportDeterministicUnderSeed(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}
	got1, stats1 := chaosRun(t, cfg, 200)
	got2, stats2 := chaosRun(t, cfg, 200)
	if stats1 != stats2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", stats1, stats2)
	}
	if len(got1) != len(got2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery order differs at %d: %d vs %d", i, got1[i], got2[i])
		}
	}
	if stats1.Dropped == 0 || stats1.Duplicated == 0 || stats1.Reordered == 0 {
		t.Fatalf("faults not exercised: %+v", stats1)
	}
	// The index rules draw nothing: failing send k leaves every other send's
	// fate as the seed decided it. Each k is a send the seed neither holds
	// nor delivers ahead of a held one; it drops send 8 and delivers send 10.
	for _, k := range []int64{8, 10} {
		failing := cfg
		failing.FailSendAt = k
		got, stats := chaosRun(t, failing, 200)
		want := slices.DeleteFunc(slices.Clone(got1), func(r uint64) bool { return r == uint64(k) })
		if !slices.Equal(got, want) || stats.Sent != 200 || stats.Failed != 1 {
			t.Fatalf("FailSendAt %d: delivered %v, stats %+v; want %v", k, got, stats, want)
		}
	}
	// A different seed produces a different pattern.
	cfg.Seed = 43
	got3, _ := chaosRun(t, cfg, 200)
	same := len(got3) == len(got1)
	if same {
		for i := range got1 {
			if got1[i] != got3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestChaosTransportDropAll(t *testing.T) {
	got, stats := chaosRun(t, ChaosConfig{Seed: 1, DropProb: 1}, 10)
	if len(got) != 0 || stats.Dropped != 10 {
		t.Fatalf("DropProb=1 delivered %d, stats %+v", len(got), stats)
	}
}

func TestChaosTransportDuplicateAll(t *testing.T) {
	got, stats := chaosRun(t, ChaosConfig{Seed: 1, DupProb: 1}, 5)
	if len(got) != 10 || stats.Duplicated != 5 {
		t.Fatalf("DupProb=1 delivered %d, stats %+v", len(got), stats)
	}
}

func TestChaosTransportReordersNeighbours(t *testing.T) {
	// Reorder only the first message: it must arrive after the second.
	inner := NewSimTransport(GigabitEthernet(), "a", "b")
	// With ReorderProb=1 every send draws reorder=true, so message 1 is held
	// and released behind message 2, then message 3 held behind 4, etc.
	ct := NewChaosTransport(inner, ChaosConfig{Seed: 7, ReorderProb: 1})
	defer ct.Close()
	for i := uint64(1); i <= 4; i++ {
		if err := ct.Send(Message{From: "a", To: "b", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{2, 1, 4, 3}
	for i, w := range want {
		msg, err := ct.RecvTimeout("b", 50*time.Millisecond)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if msg.Round != w {
			t.Fatalf("delivery %d = round %d, want %d", i, msg.Round, w)
		}
	}
}

// TestChaosTransportReorderIsNoDrop: with every send held back, the last of
// three has no later send to release it; the receive that would time out,
// or block, delivers it instead of losing it.
func TestChaosTransportReorderIsNoDrop(t *testing.T) {
	for _, d := range []time.Duration{time.Hour, 0} {
		inner := NewSimTransport(GigabitEthernet(), "a", "b")
		ct := NewChaosTransport(inner, ChaosConfig{Seed: 7, ReorderProb: 1})
		for i := uint64(1); i <= 3; i++ {
			if err := ct.Send(Message{From: "a", To: "b", Round: i}); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range []uint64{2, 1, 3} {
			msg, err := ct.RecvTimeout("b", d)
			if err != nil || msg.Round != w {
				t.Fatalf("deadline %v, delivery %d = round %d, %v; want round %d", d, i, msg.Round, err, w)
			}
		}
		if msg, err := ct.RecvTimeout("b", time.Hour); !IsTimeout(err) {
			t.Fatalf("deadline %v: a fourth delivery %+v, %v", d, msg, err)
		}
		if st := ct.Stats(); st.Reordered != 2 || st.Dropped != 0 {
			t.Fatalf("deadline %v: stats %+v, want 2 reordered and none dropped", d, st)
		}
		ct.Close()
	}
}

// TestChaosTransportStragglerDelay pins when a straggler's frame
// lands: after its recipient's deadline receive has timed out, as the next
// frame that recipient receives, and at once for a receive with no deadline.
func TestChaosTransportStragglerDelay(t *testing.T) {
	inner := NewSimTransport(GigabitEthernet(), "slow", "fast", "dst")
	ct := NewChaosTransport(inner, ChaosConfig{Seed: 3, StragglerParty: "slow"})
	defer ct.Close()
	send := func(from, kind string) {
		t.Helper()
		if err := ct.Send(Message{From: from, To: "dst", Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	send("slow", "s1")
	send("fast", "f")
	// The fast sender's frame arrives although it was sent second; the
	// straggler's does not beat the deadline.
	if first, err := ct.RecvTimeout("dst", time.Hour); err != nil || first.Kind != "f" {
		t.Fatalf("first = %+v, %v", first, err)
	}
	if msg, err := ct.RecvTimeout("dst", time.Hour); !IsTimeout(err) {
		t.Fatalf("straggler's frame beat the deadline: %+v, %v", msg, err)
	}
	send("fast", "f2")
	if next, err := ct.RecvTimeout("dst", time.Hour); err != nil || next.Kind != "s1" {
		t.Fatalf("frame after the deadline = %+v, %v; want the straggler's", next, err)
	}
	if next, err := ct.RecvTimeout("dst", time.Hour); err != nil || next.Kind != "f2" {
		t.Fatalf("then = %+v, %v", next, err)
	}
	send("slow", "s2")
	if msg, err := ct.Recv("dst"); err != nil || msg.Kind != "s2" {
		t.Fatalf("no-deadline receive = %+v, %v; want the held frame", msg, err)
	}
	if st := ct.Stats(); st.Sent != 4 || st.Delayed != 2 {
		t.Fatalf("stats %+v, want 4 sent and 2 held", st)
	}
}

// TestChaosTransportStragglerUnderReorder pins that the straggler rule goes
// by each frame's own sender when a held frame is released behind another
// party's: the straggler's frame stays late, a punctual one stays on time.
func TestChaosTransportStragglerUnderReorder(t *testing.T) {
	for _, order := range [][2]string{{"slow", "fast"}, {"fast", "slow"}} {
		t.Run(order[0]+"-held", func(t *testing.T) {
			inner := NewSimTransport(GigabitEthernet(), "slow", "fast", "dst")
			ct := NewChaosTransport(inner, ChaosConfig{Seed: 3, ReorderProb: 1, StragglerParty: "slow"})
			defer ct.Close()
			for _, from := range order {
				if err := ct.Send(Message{From: from, To: "dst", Kind: from}); err != nil {
					t.Fatal(err)
				}
			}
			if msg, err := ct.RecvTimeout("dst", time.Hour); err != nil || msg.Kind != "fast" {
				t.Fatalf("before the deadline = %+v, %v; want the punctual frame", msg, err)
			}
			if msg, err := ct.RecvTimeout("dst", time.Hour); !IsTimeout(err) {
				t.Fatalf("straggler's frame beat the deadline: %+v, %v", msg, err)
			}
			if msg, err := ct.Recv("dst"); err != nil || msg.Kind != "slow" {
				t.Fatalf("after the deadline = %+v, %v; want the straggler's", msg, err)
			}
			if st := ct.Stats(); st.Reordered != 1 || st.Delayed != 1 {
				t.Fatalf("stats %+v, want 1 reordered and 1 held", st)
			}
		})
	}
}

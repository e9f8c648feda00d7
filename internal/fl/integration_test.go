package fl

import (
	"sync"
	"testing"
	"time"

	"flbooster/internal/flnet"
)

// TestSecureAggregationOverTCP runs the Fig. 2 round as a deployment does:
// one Coordinator and one Client a party, each in its own goroutine with its
// own Context (its own nonce cursor, as flserver's processes have) and its
// own TCP connection to the hub — the two machines fl.Federation hosts
// in-process, exchanging nothing but frames. This exercises the full stack —
// quantization, packing, Paillier, codec, net — end to end over the loopback.
func TestSecureAggregationOverTCP(t *testing.T) {
	const parties = 3
	const dim = 6

	p := NewProfile(SystemFLBooster, 128, parties)
	p.RBits = 14
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// Ground truth.
	grads := make([][]float64, parties)
	want := make([]float64, dim)
	for c := range grads {
		grads[c] = make([]float64, dim)
		for i := range grads[c] {
			grads[c][i] = float64(c+1) * float64(i-2) / 50
			want[i] += grads[c][i]
		}
	}
	names := ClientNames(parties)

	errs := make(chan error, parties+1)
	go func() {
		errs <- func() error {
			ctx, err := NewContext(p)
			if err != nil {
				return err
			}
			conn, err := flnet.DialHub(hub.Addr(), ServerName)
			if err != nil {
				return err
			}
			defer conn.Close()
			rd, err := NewCoordinator(ctx).Begin(ctx.Profile.Schedule(names, 1), conn)
			if rd == nil {
				return err
			}
			if err == nil {
				err = rd.Serve(names, nil)
			}
			return rd.Finish(err)
		}()
	}()

	var mu sync.Mutex
	var results [][]float64
	var bound float64
	for c := 0; c < parties; c++ {
		go func(c int) {
			errs <- func() error {
				ctx, err := NewContext(p)
				if err != nil {
					return err
				}
				cl := NewClient(ctx, c)
				conn, err := flnet.DialHub(hub.Addr(), cl.Name)
				if err != nil {
					return err
				}
				defer conn.Close()
				if _, err := cl.Upload(conn, 1, grads[c]); err != nil {
					return err
				}
				frame, _, err := cl.Receive(conn, 1, time.Time{})
				if err != nil {
					return err
				}
				sums, k, err := cl.Open(frame, dim, nil)
				if err != nil {
					return err
				}
				if k != parties {
					t.Errorf("%s read K = %d off the frame, want %d", cl.Name, k, parties)
				}
				mu.Lock()
				results = append(results, sums)
				bound = float64(parties) * ctx.Quant.MaxError()
				mu.Unlock()
				return nil
			}()
		}(c)
	}
	for i := 0; i < parties+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i, sums := range results {
		for j := range want {
			if d := sums[j] - want[j]; d > bound || d < -bound {
				t.Fatalf("client copy %d: sum[%d] = %v, want %v ± %v", i, j, sums[j], want[j], bound)
			}
		}
		if !sameBits(sums, results[0]) {
			t.Fatalf("client copies differ: %v vs %v", sums, results[0])
		}
	}
	bytes, msgs, _ := hub.Meter().Snapshot()
	if msgs != 2*parties || bytes == 0 {
		t.Fatalf("hub saw %d msgs / %d bytes", msgs, bytes)
	}
}

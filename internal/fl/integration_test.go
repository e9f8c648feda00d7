package fl

import (
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// TestSecureAggregationOverTCP runs the Fig. 2 round over real TCP
// connections through a hub: clients upload in goroutines, the server
// aggregates homomorphically and broadcasts, a client decrypts. This exercises
// the full stack — quantization, packing, Paillier, codec, net — end to end
// over the loopback. A Context is one party's (its nonce cursor is not
// synchronised; flserver gives every client its own), so the three uploads
// are encrypted before the goroutines that send them start.
func TestSecureAggregationOverTCP(t *testing.T) {
	const parties = 3
	const dim = 6

	p := NewProfile(SystemFLBooster, 128, parties)
	p.RBits = 14
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}

	hub, err := flnet.NewTCPHub("127.0.0.1:0", flnet.GigabitEthernet())
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

	// Server goroutine.
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- func() error {
			conn, err := flnet.DialHub(hub.Addr(), ServerName)
			if err != nil {
				return err
			}
			defer conn.Close()
			batches := make([][]paillier.Ciphertext, 0, parties)
			for i := 0; i < parties; i++ {
				msg, err := conn.Recv(ServerName)
				if err != nil {
					return err
				}
				nats, err := flnet.DecodeNats(msg.Payload)
				if err != nil {
					return err
				}
				cts := make([]paillier.Ciphertext, len(nats))
				for j, n := range nats {
					cts[j] = paillier.Ciphertext{C: n}
				}
				batches = append(batches, cts)
			}
			agg, err := ctx.AggregateCiphertexts(batches)
			if err != nil {
				return err
			}
			aggNats := make([]mpint.Nat, len(agg))
			for i, c := range agg {
				aggNats[i] = c.C
			}
			payload := flnet.EncodeNats(aggNats)
			for i := 0; i < parties; i++ {
				if err := conn.Send(flnet.Message{
					From: ServerName, To: ClientName(i), Kind: "agg", Payload: payload,
				}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	// Client goroutines.
	results := make(chan []float64, parties)
	clientErrs := make(chan error, parties)
	for c := 0; c < parties; c++ {
		cts, err := ctx.EncryptGradients(grads[c])
		if err != nil {
			t.Fatal(err)
		}
		go func(c int) {
			err := func() error {
				name := ClientName(c)
				conn, err := flnet.DialHub(hub.Addr(), name)
				if err != nil {
					return err
				}
				defer conn.Close()
				nats := make([]mpint.Nat, len(cts))
				for i, ct := range cts {
					nats[i] = ct.C
				}
				if err := conn.Send(flnet.Message{
					From: name, To: ServerName, Kind: "grads", Payload: flnet.EncodeNats(nats),
				}); err != nil {
					return err
				}
				msg, err := conn.Recv(name)
				if err != nil {
					return err
				}
				aggNats, err := flnet.DecodeNats(msg.Payload)
				if err != nil {
					return err
				}
				aggCts := make([]paillier.Ciphertext, len(aggNats))
				for i, n := range aggNats {
					aggCts[i] = paillier.Ciphertext{C: n}
				}
				sums, err := ctx.DecryptAggregated(aggCts, dim, parties)
				if err != nil {
					return err
				}
				results <- sums
				return nil
			}()
			clientErrs <- err
		}(c)
	}

	for i := 0; i < parties; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}

	bound := float64(parties) * ctx.Quant.MaxError()
	for i := 0; i < parties; i++ {
		sums := <-results
		for j := range want {
			if d := sums[j] - want[j]; d > bound || d < -bound {
				t.Fatalf("client copy %d: sum[%d] = %v, want %v ± %v", i, j, sums[j], want[j], bound)
			}
		}
	}
	bytes, msgs, _ := hub.Meter().Snapshot()
	if msgs != 2*parties || bytes == 0 {
		t.Fatalf("hub saw %d msgs / %d bytes", msgs, bytes)
	}
}

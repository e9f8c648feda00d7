package flnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestHubConcurrentSendersKeepFraming: the hub relays each sender on its own
// goroutine, so several senders write to one destination connection at once.
// A frame must reach the wire whole — header and body in one write — or two
// frames interleave and the receiver's stream is garbage from then on.
func TestHubConcurrentSendersKeepFraming(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 100
	var wg sync.WaitGroup
	var clients []*TCPClient
	// Closing the hub first unblocks any sender still mid-write when the
	// receiver has given up.
	defer func() {
		hub.Close()
		wg.Wait()
		server.Close()
		for _, c := range clients {
			c.Close()
		}
	}()
	for s := 0; s < senders; s++ {
		name := fmt.Sprintf("client%d", s)
		c, err := DialHub(hub.Addr(), name)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(s)}, (1<<16)+s)
			for i := 0; i < each; i++ {
				if c.Send(Message{From: name, To: "server", Kind: "grads", Round: uint64(i), Payload: payload}) != nil {
					return // the receiver reports what went missing
				}
			}
		}(s)
	}
	for i := 0; i < senders*each; i++ {
		msg, err := server.Recv("server")
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		var s int
		if _, err := fmt.Sscanf(msg.From, "client%d", &s); err != nil || msg.Kind != "grads" ||
			!bytes.Equal(msg.Payload, bytes.Repeat([]byte{byte(s)}, (1<<16)+s)) {
			t.Fatalf("message %d arrived mangled: from %q kind %q, %d payload bytes", i, msg.From, msg.Kind, len(msg.Payload))
		}
	}
	wg.Wait()
}

package netsim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestRegistryHoldsOnlyLiveConns opens and closes 1,000 connection
// pairs, ten open at a time and closed in shuffled order, half by Close
// and half by Reset. Each open pair must be registered and the registry
// empty once every pair is closed: a closed mailbox (and the selection
// key its readability callback reaches) must not outlive its
// connection.
func TestRegistryHoldsOnlyLiveConns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, loopback := range []bool{false, true} {
		n := newNet(0)
		n.SetLoopback(loopback)
		closed := make(chan struct{})
		n.HandleTCP(serverAP, func(c *Conn) {
			buf := make([]byte, 64)
			for {
				if _, err := c.Read(buf); err != nil {
					break
				}
			}
			c.Close()
			closed <- struct{}{}
		})
		for batch := 0; batch < 100; batch++ {
			conns := make([]*Conn, 10)
			for i := range conns {
				c, err := n.Dial(clientAP, serverAP)
				if err != nil {
					t.Fatalf("loopback=%v dial: %v", loopback, err)
				}
				conns[i] = c
			}
			if got := n.liveMailboxes(); got != 2*len(conns) {
				t.Fatalf("loopback=%v: %d mailboxes registered with %d pairs open, want %d", loopback, got, len(conns), 2*len(conns))
			}
			for i, k := range rng.Perm(len(conns)) {
				if (batch+i)%2 == 0 {
					conns[k].Close()
				} else {
					conns[k].Reset()
				}
				<-closed
				if got, want := n.liveMailboxes(), 2*(len(conns)-i-1); got != want {
					t.Fatalf("loopback=%v: %d mailboxes registered, want %d", loopback, got, want)
				}
			}
		}
		n.Close()
	}
}

// TestCloseReleasesBlockedReaderAndWriter checks what the registry is
// for: Network.Close releases a reader blocked in Read on a live
// connection and a writer blocked on a full receive window.
func TestCloseReleasesBlockedReaderAndWriter(t *testing.T) {
	for _, loopback := range []bool{false, true} {
		n := newNet(0)
		n.SetLoopback(loopback)
		n.HandleTCP(serverAP, func(c *Conn) {}) // never reads, never closes
		idle, err := n.Dial(clientAP, serverAP)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		peers := make(chan *Conn, 1)
		n.HandleTCP(dnsAP, func(c *Conn) { peers <- c }) // never reads either
		full, err := n.Dial(clientAP, dnsAP)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		peer := <-peers

		readErr := make(chan error, 1)
		go func() {
			_, err := idle.Read(make([]byte, 16))
			readErr <- err
		}()
		writeErr := make(chan error, 1)
		go func() {
			chunk := make([]byte, 8192)
			for {
				if _, err := full.Write(chunk); err != nil {
					writeErr <- err
					return
				}
			}
		}()
		// The writer is stalled once the peer's window cannot take
		// another chunk.
		deadline := time.Now().Add(5 * time.Second)
		for peer.buffered()+8192 <= DefaultRecvBuffer {
			if time.Now().After(deadline) {
				t.Fatalf("loopback=%v: the peer's receive window never filled", loopback)
			}
			time.Sleep(time.Millisecond)
		}

		n.Close()
		for name, ch := range map[string]chan error{"reader": readErr, "writer": writeErr} {
			select {
			case err := <-ch:
				if err == nil || errors.Is(err, ErrWouldBlock) {
					t.Errorf("loopback=%v: %s released with %v, want an error", loopback, name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("loopback=%v: %s still blocked after Network.Close", loopback, name)
			}
		}
	}
}

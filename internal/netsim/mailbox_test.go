package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestLoopbackEchoAllocatesNothing pins the byte path through a
// loopback connection at zero allocations in steady state: a Write
// copies straight into the peer's receive buffer, drawn from recvBufs,
// and the echo server's read buffer stays on its stack.
func TestLoopbackEchoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops receive buffers at random under the race detector")
	}
	n := newNet(0)
	n.SetLoopback(true)
	defer n.Close()
	n.HandleTCP(serverAP, EchoHandler())
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for _, size := range []int{16, 64 << 10} {
		msg, got := make([]byte, size), make([]byte, size)
		echo := func() {
			if _, err := c.Write(msg); err != nil {
				t.Fatalf("write: %v", err)
			}
			for k := 0; k < size; {
				nn, err := c.Read(got[k:])
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				k += nn
			}
		}
		for i := 0; i < 10; i++ {
			echo() // grow the receive buffers the pool circulates
		}
		if allocs := testing.AllocsPerRun(100, echo); allocs != 0 {
			t.Errorf("%d B loopback echo: %v allocs/op, want 0", size, allocs)
		}
	}
}

// TestMailboxMatchesBuffer drives random write sizes and partial reads
// through one direction of a connection, in loopback and in delayed
// mode, against a bytes.Buffer oracle. Writes reach 3× the 64 KiB
// receive buffer, so they must trickle through flow control; the
// stream then ends in EOF after the drain. A second connection checks
// a reset: the reader gets a prefix of what was written, then ErrReset.
// On the delayed link the reset is sent while the data is still queued
// behind a 10 s delay, so the prefix is empty: the RST overtakes it.
// In loopback every byte is already in the receive buffer and stays
// readable, as before.
func TestMailboxMatchesBuffer(t *testing.T) {
	for _, loopback := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("loopback=%v/seed=%d", loopback, seed), func(t *testing.T) {
				mailboxRun(t, loopback, seed)
			})
		}
	}
}

func mailboxRun(t *testing.T, loopback bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	delay := 20 * time.Millisecond
	if loopback {
		delay = 0
	}
	n := newNet(delay)
	n.SetLoopback(loopback)
	defer n.Close()
	server := make(chan *Conn, 2)
	n.HandleTCP(serverAP, func(c *Conn) { server <- c })
	c, err := n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	s := <-server

	var want bytes.Buffer
	sizes := make([]int, 40)
	for i := range sizes {
		switch rng.Intn(4) {
		case 0:
			sizes[i] = 1 + rng.Intn(16)
		case 1:
			sizes[i] = 1 + rng.Intn(1460)
		case 2:
			sizes[i] = 1 + rng.Intn(DefaultRecvBuffer)
		default:
			sizes[i] = DefaultRecvBuffer + rng.Intn(2*DefaultRecvBuffer)
		}
		b := make([]byte, sizes[i])
		rng.Read(b)
		want.Write(b)
	}
	stream := want.Bytes()
	writeErr := make(chan error, 1)
	go func() {
		off := 0
		for _, size := range sizes {
			if _, err := c.Write(stream[off : off+size]); err != nil {
				writeErr <- err
				return
			}
			off += size
		}
		writeErr <- c.CloseWrite()
	}()

	readRng := rand.New(rand.NewSource(seed + 100))
	var got bytes.Buffer
	buf := make([]byte, 2*DefaultRecvBuffer)
	for {
		nn, err := s.Read(buf[:1+readRng.Intn(len(buf))])
		got.Write(buf[:nn])
		if errors.Is(err, ErrEOFConn) {
			break
		}
		if err != nil {
			t.Fatalf("read after %d bytes: %v", got.Len(), err)
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(got.Bytes(), stream) {
		t.Fatalf("read %d bytes, want %d; first difference at %d", got.Len(), len(stream), firstDiff(got.Bytes(), stream))
	}
	if _, err := s.Read(buf); !errors.Is(err, ErrEOFConn) {
		t.Fatalf("read after EOF: %v, want ErrEOFConn again", err)
	}
	s.Close()
	c.Close()

	// A reset: a prefix of the written bytes, then ErrReset, never EOF.
	c, err = n.Dial(clientAP, serverAP)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	s = <-server
	if !loopback {
		// Far longer than any scheduling stall between Write and Reset,
		// so the data is still queued when the RST leaves.
		n.SetLink(serverAP.Addr(), LinkParams{Delay: 10 * time.Second})
	}
	sent := make([]byte, 1+rng.Intn(DefaultRecvBuffer/2))
	rng.Read(sent)
	if _, err := c.Write(sent); err != nil {
		t.Fatalf("write before reset: %v", err)
	}
	c.Reset()
	got.Reset()
	for {
		nn, err := s.Read(buf)
		got.Write(buf[:nn])
		if errors.Is(err, ErrReset) {
			break
		}
		if err != nil {
			t.Fatalf("read after reset: %v, want ErrReset", err)
		}
	}
	switch {
	case !bytes.HasPrefix(sent, got.Bytes()):
		t.Fatalf("read %d bytes before the reset that were not written first", got.Len())
	case loopback && got.Len() != len(sent):
		t.Fatalf("loopback: read %d of the %d buffered bytes before ErrReset", got.Len(), len(sent))
	case !loopback && got.Len() != 0:
		t.Fatalf("delayed: read %d bytes before ErrReset, want the RST to jump them", got.Len())
	}
	s.Close()
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

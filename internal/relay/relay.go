// Package relay defines the per-connection client objects that splice an
// internal (tunnel-side) connection to an external (socket-side)
// connection, the "two-way referencing" of §2.3: the client wraps the
// socket instance and holds a reference to the TCP state machine, and
// the engine reaches the client back through the selector key
// attachment.
package relay

import (
	"sync"

	"repro/internal/packet"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
)

// TCPClient splices one app TCP connection to one external socket.
type TCPClient struct {
	// Flow is the app-originated direction (app addr -> server addr).
	Flow packet.FlowKey
	// SM terminates the internal connection.
	SM *tcpsm.Machine

	// ch is the external socket channel, nil until the socket-connect
	// thread creates it; key is the selector registration, nil until
	// registered. Both are written by the temporary socket-connect
	// thread while the engine's packet/teardown paths read them, so
	// access goes through Ch/SetCh and Key/SetKey under the client
	// mutex.
	ch  *sockets.Channel
	key *sockets.SelectionKey

	// App attribution, filled by the packet-to-app mapping (§3.3).
	// Written by the socket-connect thread and read by the engine's
	// teardown/record paths and traffic snapshots, so access goes
	// through SetApp/AppInfo under the client mutex. mapped is set
	// once it is final; finHeld marks a FIN toward the app that waits
	// for it (HoldFIN).
	uid     int
	app     string
	mapped  bool
	finHeld bool

	// SYNAt is the engine clock when the SYN was processed; the lazy
	// mapper uses it to know how fresh a proc parse must be.
	SYNAt int64

	// Shard is the flow-table shard this flow hashes to, set by the
	// engine at creation. In the multi-worker engine it pins the flow
	// to one worker (shard % workers), so every socket event can be
	// routed without rehashing the flow key.
	Shard int

	mu        sync.Mutex
	writeBuf  []Write
	bufBytes  int
	halfClose bool // app FIN received: flush writes, then CloseWrite
	removed   bool
}

// Write is one queued socket write: Data, and Buf, the tunnel buffer
// Data is a slice of. Buf is released to the TUN device once Data is on
// the socket; it is nil when Data keeps no tunnel buffer.
type Write struct {
	Data []byte
	Buf  []byte
}

// NewTCPClient creates a client for a flow with its state machine.
func NewTCPClient(flow packet.FlowKey, sm *tcpsm.Machine, synAt int64) *TCPClient {
	return &TCPClient{Flow: flow, SM: sm, SYNAt: synAt, uid: -1, app: "unknown"}
}

// Ch returns the external socket channel (nil before the
// socket-connect thread creates it).
func (c *TCPClient) Ch() *sockets.Channel {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ch
}

// SetCh installs the external socket channel.
func (c *TCPClient) SetCh(ch *sockets.Channel) {
	c.mu.Lock()
	c.ch = ch
	c.mu.Unlock()
}

// Key returns the selector registration (nil before registration).
func (c *TCPClient) Key() *sockets.SelectionKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.key
}

// SetKey installs the selector registration.
func (c *TCPClient) SetKey(k *sockets.SelectionKey) {
	c.mu.Lock()
	c.key = k
	c.mu.Unlock()
}

// SetApp records the resolved attribution (§3.3). Called from the
// socket-connect thread once the mapping completes. It reports whether
// a FIN toward the app was held for it (HoldFIN); the caller sends it.
func (c *TCPClient) SetApp(uid int, app string) (finHeld bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.uid, c.app, c.mapped = uid, app, true
	finHeld, c.finHeld = c.finHeld, false
	return finHeld
}

// HoldFIN reports whether the FIN toward the app must wait for the
// attribution, and if so leaves it to SetApp's caller. The app's
// kernel lists its socket in /proc/net under the app's UID until that
// FIN arrives, so holding it keeps a flow that ends within the mapper's
// wait visible to the parse that attributes it.
func (c *TCPClient) HoldFIN() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finHeld = !c.mapped
	return c.finHeld
}

// AppInfo returns the current attribution ("unknown"/-1 until the
// mapping resolves).
func (c *TCPClient) AppInfo() (uid int, app string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uid, c.app
}

// EnqueueWrite places tunnel data into the socket write buffer (§2.3
// TCP Data: "places the data from tunnel packets to a socket write
// buffer and triggers a socket write event"). data is a slice of buf,
// the tunnel packet's buffer, which the buffer now keeps until the
// write.
func (c *TCPClient) EnqueueWrite(data, buf []byte) {
	c.mu.Lock()
	c.writeBuf = append(c.writeBuf, Write{Data: data, Buf: buf})
	c.bufBytes += len(data)
	c.mu.Unlock()
}

// TakeWrites drains the write buffer for the socket write event
// handler, which returns the slice through ReleaseWrites once the data
// is on the socket.
func (c *TCPClient) TakeWrites() []Write {
	c.mu.Lock()
	bufs := c.writeBuf
	c.writeBuf = nil
	c.bufBytes = 0
	c.mu.Unlock()
	return bufs
}

// ReleaseWrites hands a written-out TakeWrites slice back to become
// the write buffer again, so a flow in steady state keeps one backing
// array instead of allocating one per flush. Its references are
// dropped first, so an idle flow pins no tunnel buffer. (Data enqueued
// since the take already has a new buffer; the old one is then let go.)
func (c *TCPClient) ReleaseWrites(bufs []Write) {
	clear(bufs)
	c.mu.Lock()
	if c.writeBuf == nil {
		c.writeBuf = bufs[:0]
	}
	c.mu.Unlock()
}

// PendingWrites reports whether data awaits a socket write.
func (c *TCPClient) PendingWrites() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writeBuf) > 0
}

// BufferedBytes returns the write-buffer occupancy.
func (c *TCPClient) BufferedBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bufBytes
}

// RequestHalfClose marks that the app sent FIN; once the write buffer is
// flushed the engine half-closes the external connection (§2.3 TCP FIN
// "triggers a half-close write event").
func (c *TCPClient) RequestHalfClose() {
	c.mu.Lock()
	c.halfClose = true
	c.mu.Unlock()
}

// HalfCloseRequested reports whether a half close is pending.
func (c *TCPClient) HalfCloseRequested() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.halfClose
}

// MarkRemoved flags the client as removed from the cached client list;
// returns false if it already was (§2.3 TCP RST: "removes the
// corresponding TCP client object from the cached TCP client list").
func (c *TCPClient) MarkRemoved() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.removed {
		return false
	}
	c.removed = true
	// Nothing flushes a removed client, so it keeps no buffer either.
	c.writeBuf, c.bufBytes = nil, 0
	return true
}

// Removed reports whether the client was removed.
func (c *TCPClient) Removed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removed
}

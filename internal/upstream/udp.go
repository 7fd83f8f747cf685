package upstream

import (
	"net"
	"net/netip"
	"time"
)

// kernelUDPTimeout bounds each relayed datagram's response wait.
const kernelUDPTimeout = 5 * time.Second

// KernelUDP returns a UDP exit over real kernel sockets, shaped for
// sockets.Provider.SetUDPTransport. Each datagram gets its own
// connected socket — the relay's UDP traffic is DNS-transaction shaped
// (§2.4: one query, one response, temporary thread), so per-exchange
// sockets keep the exit stateless. A response arriving within
// kernelUDPTimeout is handed to deliver; then the socket closes.
func KernelUDP() func(local, dst netip.AddrPort, payload []byte, deliver func([]byte)) {
	return func(_, dst netip.AddrPort, payload []byte, deliver func([]byte)) {
		c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(dst))
		if err != nil {
			return
		}
		if _, err := c.Write(payload); err != nil {
			c.Close()
			return
		}
		go func() {
			defer c.Close()
			_ = c.SetReadDeadline(time.Now().Add(kernelUDPTimeout))
			buf := make([]byte, 64*1024)
			n, err := c.Read(buf)
			if err != nil || n == 0 {
				return
			}
			deliver(append([]byte(nil), buf[:n]...))
		}()
	}
}

package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dnsmsg"
)

// This file provides the canned server behaviours the experiments need:
// an echo server, a byte sink and byte source for speedtest-style
// throughput runs (Table 3), an HTTP-ping style responder for the
// MobiPerf baseline (Table 2), and a DNS resolver (§2.4, Figures 10–11).

// EchoHandler returns a TCP handler that writes back everything it
// reads.
func EchoHandler() TCPHandler {
	return func(c *Conn) {
		defer c.Close()
		buf := make([]byte, 32*1024)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				if _, werr := c.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
}

// EchoUDPHandler answers every datagram with its own payload — the
// UDP counterpart of EchoHandler, used by loss-rate and scenario
// workload tests.
func EchoUDPHandler() UDPHandler {
	return func(req []byte, _ netip.AddrPort) []byte { return req }
}

// CountingSinkHandler consumes uploaded bytes and adds them to the
// counter, so a speedtest can measure delivered (not merely buffered)
// upload throughput at the server.
func CountingSinkHandler(counter *atomic.Int64) TCPHandler {
	return func(c *Conn) {
		defer c.Close()
		buf := make([]byte, 32*1024)
		for {
			n, err := c.Read(buf)
			counter.Add(int64(n))
			if err != nil {
				return
			}
		}
	}
}

// SourceHandler streams total bytes to the client as fast as flow
// control allows, then half-closes — the download half of a speedtest.
func SourceHandler(total int64) TCPHandler {
	return func(c *Conn) {
		defer c.Close()
		buf := make([]byte, 16*1024)
		var sent int64
		for sent < total {
			n := int64(len(buf))
			if total-sent < n {
				n = total - sent
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
			sent += n
		}
		c.CloseWrite()
	}
}

// HTTPPingHandler answers a minimal HTTP request with "HTTP/1.1 204 No
// Content". MobiPerf's HTTP ping (§4.1.1) issues such requests and
// derives RTT from them.
func HTTPPingHandler() TCPHandler {
	return func(c *Conn) {
		defer c.Close()
		buf := make([]byte, 4096)
		var req bytes.Buffer
		for {
			n, err := c.Read(buf)
			if n > 0 {
				req.Write(buf[:n])
				if bytes.Contains(req.Bytes(), []byte("\r\n\r\n")) {
					_, _ = c.Write([]byte("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"))
					req.Reset()
					continue
				}
			}
			if err != nil {
				return
			}
		}
	}
}

// ChattyHandler reads a 4-byte big-endian length and echoes that many
// zero bytes back, repeatedly. It models a generic request/response app
// server (the per-app workloads use it).
func ChattyHandler() TCPHandler {
	return func(c *Conn) {
		defer c.Close()
		hdr := make([]byte, 4)
		for {
			if err := readFull(c, hdr); err != nil {
				return
			}
			n := binary.BigEndian.Uint32(hdr)
			if n > 1<<20 {
				return
			}
			resp := make([]byte, n)
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}
}

func readFull(c *Conn, buf []byte) error {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		got += n
		if err != nil {
			if got == len(buf) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Zone maps fully qualified names to addresses for the simulated DNS
// service.
type Zone struct {
	records map[string]netip.Addr
}

// NewZone creates an empty zone.
func NewZone() *Zone { return &Zone{records: make(map[string]netip.Addr)} }

// Add registers name -> addr. Names are case-insensitive and stored
// without a trailing dot.
func (z *Zone) Add(name string, addr netip.Addr) {
	z.records[normalizeName(name)] = addr
}

// Lookup resolves a name.
func (z *Zone) Lookup(name string) (netip.Addr, bool) {
	a, ok := z.records[normalizeName(name)]
	return a, ok
}

func normalizeName(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// DNSHandler answers A/AAAA queries from the zone. Unknown names get
// NXDOMAIN. Non-queries and unsupported opcodes are ignored (nil).
func DNSHandler(zone *Zone) UDPHandler {
	return func(req []byte, from netip.AddrPort) []byte {
		q, err := dnsmsg.Decode(req)
		if err != nil || q.Response || len(q.Questions) == 0 {
			return nil
		}
		name := q.Questions[0].Name
		addr, ok := zone.Lookup(name)
		if !ok {
			resp := dnsmsg.NewResponse(q, dnsmsg.RCodeNXDomain)
			out, _ := resp.Encode()
			return out
		}
		resp := dnsmsg.NewResponse(q, dnsmsg.RCodeOK)
		qt := q.Questions[0].Type
		if (qt == dnsmsg.TypeA && addr.Is4()) || (qt == dnsmsg.TypeAAAA && !addr.Is4()) || qt == dnsmsg.TypeA {
			resp.AddAddress(name, addr, 300)
		}
		out, err := resp.Encode()
		if err != nil {
			return nil
		}
		return out
	}
}

// ServerSpec describes one app server to install on the network: a
// domain name, an address, link parameters, and the handler behaviour.
type ServerSpec struct {
	Domain  string
	Addr    netip.AddrPort
	Link    LinkParams
	Handler TCPHandler
}

// Install registers a set of servers and their DNS names in one step,
// returning the zone used. dnsAddr is where the resolver is placed and
// dnsLink its path (the paper's Figures 10–11 give DNS its own, usually
// shorter, path since resolvers sit in the ISP).
func Install(n *Network, specs []ServerSpec, dnsAddr netip.AddrPort, dnsLink LinkParams, dnsThink time.Duration) (*Zone, error) {
	zone := NewZone()
	for _, s := range specs {
		if s.Handler == nil {
			return nil, errors.New("netsim: ServerSpec with nil handler")
		}
		if !s.Addr.IsValid() {
			return nil, fmt.Errorf("netsim: invalid server addr for %q", s.Domain)
		}
		n.HandleTCP(s.Addr, s.Handler)
		n.SetLink(s.Addr.Addr(), s.Link)
		if s.Domain != "" {
			zone.Add(s.Domain, s.Addr.Addr())
		}
	}
	n.HandleUDP(dnsAddr, dnsThink, DNSHandler(zone))
	n.SetLink(dnsAddr.Addr(), dnsLink)
	return zone, nil
}

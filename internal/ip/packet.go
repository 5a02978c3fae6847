// Package ip models the router-based (TCP/IP) world of Section 4 of the
// paper: packets whose headers carry the source's current rate (CR) — the
// paper's proposed TCP/IP header modification — and output ports governed
// by a queue discipline. Besides the drop-tail and RED baselines, the
// package implements the paper's four Phantom router mechanisms: Selective
// Discard (Fig. 18), Selective Source Quench, ECN/EFCI-bit marking and
// Selective RED.
package ip

import (
	"sync"

	"repro/internal/sim"
)

// HeaderBytes is the combined IP+TCP header size used for wire accounting.
const HeaderBytes = 40

// Packet is one IP datagram carrying either a TCP data segment or a pure
// ACK. Packets come from NewPacket at the sender and flow through the
// network by pointer; ownership moves with the pointer down the Sink chain,
// and whichever component ends the packet's life — the consuming end
// system, a port or edge that drops it, an edge whose reassembly check
// fails — calls Release. Anyone else handed the packet (drop observers,
// disciplines, trace emitters) may read it only during that call.
type Packet struct {
	// Flow identifies the TCP session.
	Flow int
	// Seq is the first payload byte's sequence number (data packets).
	Seq int64
	// Len is the payload length in bytes (0 for a pure ACK).
	Len int
	// AckNo is the cumulative acknowledgment (next byte expected).
	AckNo int64
	// CurrentRate is the CR field the paper adds to the header: the
	// source's measured rate in bits/s. Routers compare it against
	// u·MACR.
	CurrentRate float64
	// ECN is the congestion bit (the paper's EFCI-on-IP-header variant).
	// On data packets it is set by routers; receivers echo it on ACKs.
	ECN bool
	// Ack marks a pure ACK travelling receiver→sender. It sits beside ECN
	// so the two flags share one word of padding.
	Ack bool
}

// packetPool recycles packets across their lifetimes. A sync.Pool keeps the
// recycling safe for the fleet's engines running side by side.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// recycle returns released packets to packetPool. Tests turn it off so a
// read after Release meets a poisoned packet that is never handed out again.
var recycle = true

// NewPacket returns a packet holding v, taken from the pool. Every field is
// overwritten, so nothing of a previous occupant survives.
func NewPacket(v Packet) *Packet {
	p := packetPool.Get().(*Packet)
	*p = v
	return p
}

// Release ends the packet's life: it poisons the packet (Flow -1, which no
// router routes and no end system accepts) and returns it to the pool. The
// caller must own the packet and not touch it afterwards.
func (p *Packet) Release() {
	*p = Packet{Flow: -1}
	if recycle {
		packetPool.Put(p)
	}
}

// SizeBytes is the wire size of the packet.
func (p *Packet) SizeBytes() int { return p.Len + HeaderBytes }

// SizeBits is the wire size in bits.
func (p *Packet) SizeBits() float64 { return float64(p.SizeBytes()) * 8 }

// Sink consumes packets. Receive takes ownership of p: the caller must not
// touch it after the call, and the receiver either passes it on or releases
// it.
type Sink = sim.Sink[*Packet]

// The UDP ingest lane (DESIGN.md §11): an optional datagram path for
// fire-and-forget telemetry-style producers, next to the TCP stream the
// rest of the protocol runs on.
//
// Each datagram carries one ingest batch tagged with a producer-chosen
// 64-bit source id and a per-source sequence number starting at 1. The
// server applies a source's datagrams strictly in sequence order: an
// out-of-order arrival is buffered in a bounded reorder window until the
// gap fills, a duplicate (already applied or already buffered) is dropped,
// and an arrival beyond the window is dropped as too-far-ahead. Apply is
// therefore at-most-once per sequence number, and per-source tuple order
// equals send order — the same determinism contract as the TCP lane.
//
// Delivery is not reliable: UDP may drop, duplicate or reorder, and the
// server never requests a retransmission. Acknowledgement is a cumulative
// watermark — "every sequence number up to and including Cum has been
// applied" — that producers poll over their TCP control connection with
// the TUDPAck RPC. A producer that cares about its data retransmits
// unacknowledged datagrams until the watermark passes them (the client
// package's UDPIngester does); a producer that does not simply stops
// polling. A lost datagram that is never retransmitted stalls its source's
// watermark forever: that is the documented cost of fire-and-forget, not a
// server malfunction.
//
// Datagram layout (little-endian, no length prefix — the datagram boundary
// is the frame boundary):
//
//	u8   protocol version (Version)
//	u8   datagram kind    (UDPData)
//	u64  source id
//	u64  sequence number  (first datagram is 1)
//	u32  CRC-32C          (over the payload bytes)
//	...  payload           (a stream binary batch, header included)
//
// A datagram failing any validation is dropped in its entirety — unlike a
// TCP stream there is nothing to resynchronize, the next datagram stands
// alone.
package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// UDPData is the single datagram kind: one sequence-numbered ingest batch.
const UDPData = 0x01

// udpHeaderLen is the datagram header size: version, kind, source id,
// sequence number, CRC.
const udpHeaderLen = 1 + 1 + 8 + 8 + 4

// MaxDatagram bounds an encoded datagram. 64 KiB is the IPv4 UDP ceiling;
// producers sending off-host should stay under the path MTU themselves —
// the protocol does not fragment.
const MaxDatagram = 1 << 16

// MaxUDPPayload is the largest batch payload one datagram can carry.
const MaxUDPPayload = MaxDatagram - udpHeaderLen

// Datagram is one decoded UDP ingest datagram. Payload aliases the receive
// buffer it was decoded from.
type Datagram struct {
	Source  uint64
	Seq     uint64
	Payload []byte
}

// AppendDatagram appends the encoded datagram to dst and returns the
// extended slice.
func AppendDatagram(dst []byte, d Datagram) ([]byte, error) {
	if len(d.Payload) > MaxUDPPayload {
		return dst, fmt.Errorf("proto: datagram payload of %d bytes exceeds the %d-byte limit", len(d.Payload), MaxUDPPayload)
	}
	if d.Seq == 0 {
		return dst, fmt.Errorf("proto: datagram sequence numbers start at 1")
	}
	dst = append(dst, Version, UDPData)
	dst = binary.LittleEndian.AppendUint64(dst, d.Source)
	dst = binary.LittleEndian.AppendUint64(dst, d.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(d.Payload, castagnoli))
	return append(dst, d.Payload...), nil
}

// DecodeDatagram parses and validates one received datagram. The returned
// payload aliases pkt. Malformed datagrams are dropped by the caller; the
// error says why for the drop counter's sake.
func DecodeDatagram(pkt []byte) (Datagram, error) {
	if len(pkt) < udpHeaderLen {
		return Datagram{}, fmt.Errorf("%w: %d-byte datagram is shorter than the header", ErrMalformed, len(pkt))
	}
	if pkt[0] != Version {
		return Datagram{}, fmt.Errorf("%w: protocol version %d (want %d)", ErrMalformed, pkt[0], Version)
	}
	if pkt[1] != UDPData {
		return Datagram{}, fmt.Errorf("%w: unknown datagram kind %d", ErrMalformed, pkt[1])
	}
	d := Datagram{
		Source:  binary.LittleEndian.Uint64(pkt[2:]),
		Seq:     binary.LittleEndian.Uint64(pkt[10:]),
		Payload: pkt[udpHeaderLen:],
	}
	if d.Seq == 0 {
		return Datagram{}, fmt.Errorf("%w: datagram sequence number 0", ErrMalformed)
	}
	sum := binary.LittleEndian.Uint32(pkt[18:])
	if got := crc32.Checksum(d.Payload, castagnoli); got != sum {
		return Datagram{}, fmt.Errorf("%w: datagram checksum mismatch (stored %08x, computed %08x)", ErrMalformed, sum, got)
	}
	return d, nil
}

// UDPAckReq polls the cumulative apply state of one UDP source.
type UDPAckReq struct {
	Source uint64
}

// Encode serializes the request payload.
func (q UDPAckReq) Encode() []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), q.Source)
}

// DecodeUDPAckReq parses a TUDPAck payload.
func DecodeUDPAckReq(data []byte) (UDPAckReq, error) {
	if len(data) != 8 {
		return UDPAckReq{}, fmt.Errorf("proto: udp ack request: %w: %d bytes (want 8)", ErrMalformed, len(data))
	}
	return UDPAckReq{Source: binary.LittleEndian.Uint64(data)}, nil
}

// UDPAck is the cumulative acknowledgement for one UDP source. A source
// the server has never heard from answers with the zero value — from the
// producer's point of view "nothing applied yet" and "unknown" are the
// same thing.
type UDPAck struct {
	// Cum is the cumulative watermark: every sequence number <= Cum has
	// been consumed exactly once — applied to the engine, or counted in
	// Drops when its batch arrived intact (CRC-verified) but failed to
	// decode, where a retransmission could not help.
	Cum uint64
	// Applied counts batches applied to the engine for this source. The
	// invariant is applied + drops_after_decode == cum, NOT applied == cum:
	// a CRC-valid batch the server cannot decode advances the watermark
	// while incrementing Drops instead of Applied. A producer that needs
	// exactly-once application must therefore compare Applied against Cum
	// (the client's UDPIngester.Flush does) — a watermark that passed a
	// sequence number does not alone prove its data reached the engine.
	Applied uint64
	// Dups counts datagrams dropped as duplicates (already applied or
	// already buffered).
	Dups uint64
	// Drops counts datagrams dropped for any other reason: beyond the
	// reorder window or refused by a shutting-down server (neither advances
	// Cum — a retransmission recovers them), or decodable-batch failures
	// after an intact delivery (these DO advance Cum and are unrecoverable
	// data loss; see Applied). Datagrams malformed below the protocol layer
	// are dropped before source attribution and appear only in the
	// server-wide telemetry.
	Drops uint64
}

// Encode serializes the ack payload.
func (a UDPAck) Encode() []byte {
	dst := make([]byte, 0, 32)
	dst = binary.LittleEndian.AppendUint64(dst, a.Cum)
	dst = binary.LittleEndian.AppendUint64(dst, a.Applied)
	dst = binary.LittleEndian.AppendUint64(dst, a.Dups)
	return binary.LittleEndian.AppendUint64(dst, a.Drops)
}

// DecodeUDPAck parses a TResult payload of a UDP ack poll.
func DecodeUDPAck(data []byte) (UDPAck, error) {
	if len(data) != 32 {
		return UDPAck{}, fmt.Errorf("proto: udp ack: %w: %d bytes (want 32)", ErrMalformed, len(data))
	}
	return UDPAck{
		Cum:     binary.LittleEndian.Uint64(data),
		Applied: binary.LittleEndian.Uint64(data[8:]),
		Dups:    binary.LittleEndian.Uint64(data[16:]),
		Drops:   binary.LittleEndian.Uint64(data[24:]),
	}, nil
}

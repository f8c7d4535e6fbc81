// The client side of the UDP ingest lane (see internal/proto's udp.go for
// the lane's wire semantics). A UDPIngester sends sequence-numbered batch
// datagrams over a connected UDP socket and tracks acknowledgement through
// cumulative watermark polls on the client's TCP control connection,
// retransmitting datagrams the watermark refuses to pass. Delivery is
// at-most-once on the server; the retransmit loop turns that into
// effectively-once for producers that Flush — with one carve-out the
// watermark alone cannot express: a CRC-valid batch the server fails to
// decode advances the watermark while counting as a drop, because
// retransmitting bytes that arrived intact cannot help. Flush therefore
// audits the full ack accounting (applied + decode-drops == cum) and
// reports such losses as ErrUDPDataDropped instead of succeeding.
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"implicate/internal/proto"
)

// UDPOptions tune a UDPIngester. The zero value is usable.
type UDPOptions struct {
	// Source identifies this producer to the server; all sequence state is
	// per source. Required and non-zero — two live producers sharing a
	// source id corrupt each other's sequence space.
	Source uint64
	// Window bounds unacknowledged in-flight datagrams; Send blocks when
	// it is full. It must not exceed the server's reorder window (the
	// server default is 256, and datagrams beyond its window are dropped,
	// not buffered). Default 64.
	Window int
	// PollEvery is how many sends elapse between watermark polls while the
	// window has room. Default 16.
	PollEvery int
	// RetransmitAfter is how many polls a datagram stays unacknowledged
	// before it is re-sent; each retransmission waits linearly longer
	// (attempt × RetransmitAfter polls), so a congested lane is not fed a
	// storm of duplicates. Default 2.
	RetransmitAfter int
	// MaxStalls bounds consecutive polls with no watermark progress while
	// blocked; past it Flush and Send give up (server gone or lane
	// disabled). Default 200.
	MaxStalls int
	// PollGap is the sleep between polls while blocked on the window or
	// flushing. Default 500µs.
	PollGap time.Duration

	// dropSend, when non-nil, is a test hook deciding whether a given
	// transmission attempt (seq, attempt) is dropped instead of written.
	dropSend func(seq uint64, attempt int) bool
}

func (o UDPOptions) withDefaults() UDPOptions {
	if o.Window == 0 {
		o.Window = 64
	}
	if o.PollEvery == 0 {
		o.PollEvery = 16
	}
	if o.RetransmitAfter == 0 {
		o.RetransmitAfter = 2
	}
	if o.MaxStalls == 0 {
		o.MaxStalls = 200
	}
	if o.PollGap == 0 {
		o.PollGap = 500 * time.Microsecond
	}
	return o
}

// pendingDG is one unacknowledged datagram.
type pendingDG struct {
	payload  []byte
	attempts int
	lastPoll int // poll counter value when last (re)transmitted
}

// UDPIngester streams ingest batches to a server's UDP lane. NOT safe for
// concurrent use: one producer goroutine owns it, matching the per-source
// sequence contract. Callers must keep each payload unmodified until a
// Flush (or a Send's internal poll) confirms the watermark passed it —
// pending datagrams are retransmitted from the caller's slice, uncopied.
type UDPIngester struct {
	cl  *Client
	pc  net.Conn
	opt UDPOptions

	next      uint64 // next sequence number to assign
	cum       uint64 // last known server watermark
	polls     int
	sinceAck  int
	buf       []byte // datagram encode scratch
	pending   map[uint64]*pendingDG
	sendCount int

	// base is the server's ack state for this source at dial time, captured
	// so a reused source id does not charge a prior producer's drops to this
	// one; last is the most recent poll. The difference is this ingester's
	// own accounting (Applied, Drops, Flush's loss audit).
	base proto.UDPAck
	last proto.UDPAck
}

// DialUDP connects a datagram ingester for the server's UDP lane at
// udpAddr, using this client's TCP connection for acknowledgement polls.
func (cl *Client) DialUDP(udpAddr string, opt UDPOptions) (*UDPIngester, error) {
	opt = opt.withDefaults()
	if opt.Source == 0 {
		return nil, errors.New("client: udp ingest requires a non-zero source id")
	}
	pc, err := net.Dial("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		_ = uc.SetWriteBuffer(1 << 20) // best effort, as on the server side
	}
	// Baseline poll: a reused source id may carry watermark and drop state
	// from an earlier producer; everything this ingester accounts for is
	// measured against the state found here.
	base, err := cl.UDPAck(opt.Source)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("client: udp baseline poll: %w", err)
	}
	u := &UDPIngester{cl: cl, pc: pc, opt: opt, pending: make(map[uint64]*pendingDG)}
	u.base, u.last, u.cum, u.next = base, base, base.Cum, base.Cum
	return u, nil
}

// UDPAck polls the server's cumulative acknowledgement for a UDP source.
// The poll is idempotent and travels over TCP.
func (cl *Client) UDPAck(source uint64) (proto.UDPAck, error) {
	return result(cl, proto.TUDPAck, proto.UDPAckReq{Source: source}.Encode(), nil, proto.DecodeUDPAck)
}

// transmit encodes and writes one datagram from its pending record.
func (u *UDPIngester) transmit(seq uint64, p *pendingDG) error {
	p.attempts++
	p.lastPoll = u.polls
	if u.opt.dropSend != nil && u.opt.dropSend(seq, p.attempts) {
		return nil // dropped on the floor, as the network might
	}
	var err error
	u.buf, err = proto.AppendDatagram(u.buf[:0], proto.Datagram{Source: u.opt.Source, Seq: seq, Payload: p.payload})
	if err != nil {
		return err
	}
	_, err = u.pc.Write(u.buf)
	return err
}

// poll fetches the watermark and clears acknowledged pendings. Returns
// whether the watermark advanced.
func (u *UDPIngester) poll() (bool, error) {
	ack, err := u.cl.UDPAck(u.opt.Source)
	if err != nil {
		return false, err
	}
	u.polls++
	advanced := ack.Cum > u.cum
	u.cum = ack.Cum
	u.last = ack
	for seq := range u.pending {
		if seq <= ack.Cum {
			delete(u.pending, seq)
		}
	}
	return advanced, nil
}

// retransmit re-sends every pending datagram that has sat unacknowledged
// through its backoff (attempt × RetransmitAfter polls).
func (u *UDPIngester) retransmit() error {
	for seq, p := range u.pending {
		if u.polls-p.lastPoll >= u.opt.RetransmitAfter*p.attempts {
			if err := u.transmit(seq, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// reap polls and retransmits until the window condition holds (pending
// count <= limit), giving up after MaxStalls polls without progress.
func (u *UDPIngester) reap(limit int) error {
	stalls := 0
	for len(u.pending) > limit {
		advanced, err := u.poll()
		if err != nil {
			return err
		}
		if err := u.retransmit(); err != nil {
			return err
		}
		if len(u.pending) <= limit {
			return nil
		}
		if advanced {
			stalls = 0
		} else if stalls++; stalls >= u.opt.MaxStalls {
			return fmt.Errorf("client: udp source %d stalled at watermark %d with %d unacknowledged datagrams", u.opt.Source, u.cum, len(u.pending))
		}
		time.Sleep(u.opt.PollGap)
	}
	return nil
}

// Send fires one EncodeBatch-serialized batch at the lane, blocking only
// when the unacknowledged window is full. The payload must stay
// unmodified until acknowledged (see the type comment); its tuple count is
// not needed — UDP acknowledgement is per-datagram, not per-tuple.
func (u *UDPIngester) Send(payload []byte) error {
	if len(payload) > proto.MaxUDPPayload {
		return fmt.Errorf("client: batch of %d bytes exceeds the %d-byte datagram limit", len(payload), proto.MaxUDPPayload)
	}
	if err := u.reap(u.opt.Window - 1); err != nil {
		return err
	}
	u.next++
	p := &pendingDG{payload: payload}
	u.pending[u.next] = p
	if err := u.transmit(u.next, p); err != nil {
		return err
	}
	if u.sinceAck++; u.sinceAck >= u.opt.PollEvery {
		u.sinceAck = 0
		if _, err := u.poll(); err != nil {
			return err
		}
		if err := u.retransmit(); err != nil {
			return err
		}
	}
	return nil
}

// ErrUDPDataDropped reports that the server consumed one or more of this
// ingester's batches without applying them: the batch arrived intact
// (CRC-verified, watermark advanced) but failed to decode, so
// retransmission cannot recover it. The data is lost; the producer's only
// remedies are fixing what it encodes or re-sending the tuples as new
// batches.
var ErrUDPDataDropped = errors.New("udp batches dropped undecodable after delivery")

// Flush polls and retransmits until the watermark has passed every sent
// datagram, then audits the ack accounting: the watermark promises
// consumed-exactly-once, not applied — a CRC-valid batch the server could
// not decode advances it while counting as a drop (see proto.UDPAck.Applied).
// A nil return therefore means every batch this ingester sent was applied
// to the engine exactly once; a return wrapping ErrUDPDataDropped names how
// many of this ingester's batches the server consumed without applying
// (cumulative over the ingester's lifetime — repeated flushes re-report an
// earlier loss).
func (u *UDPIngester) Flush() error {
	if err := u.reap(0); err != nil {
		return err
	}
	consumed := u.last.Cum - u.base.Cum
	applied := u.last.Applied - u.base.Applied
	if lost := consumed - applied; lost > 0 {
		return fmt.Errorf("client: udp source %d: %w: %d of %d consumed batches unapplied", u.opt.Source, ErrUDPDataDropped, lost, consumed)
	}
	return nil
}

// Cum returns the last watermark the ingester has seen.
func (u *UDPIngester) Cum() uint64 { return u.cum }

// Applied returns how many of this ingester's batches the server has
// reported applied to the engine, as of the last poll. Dial-time baseline
// state of a reused source id is excluded.
func (u *UDPIngester) Applied() uint64 { return u.last.Applied - u.base.Applied }

// Drops returns how many of this ingester's datagrams the server has
// reported dropped for non-duplicate reasons, as of the last poll —
// recoverable window overflows and drain refusals alongside the
// unrecoverable decode failures Flush reports. Dial-time baseline state of
// a reused source id is excluded.
func (u *UDPIngester) Drops() uint64 { return u.last.Drops - u.base.Drops }

// SetDropHook installs a transmission predicate for loss-injection tests:
// when it returns true for a (seq, attempt) pair, that transmission is
// dropped on the floor instead of written, as the network might do. Not
// for production use.
func (u *UDPIngester) SetDropHook(fn func(seq uint64, attempt int) bool) { u.opt.dropSend = fn }

// Close releases the socket. It does not flush.
func (u *UDPIngester) Close() error {
	return u.pc.Close()
}

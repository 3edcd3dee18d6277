// The wire codec (DESIGN.md §11): the one dialect of the TCP carrier. An
// UpdateInterval round costs a few tens of bytes. Three mechanisms stack:
//
//   - intervals go as binary deltas against a reference range negotiated
//     at connection time (interval.AppendDelta; the server's WireRef,
//     typically the root interval the coordinator boundary already pins),
//     instead of two ~65-digit decimal texts;
//   - a call is named by a one-byte method id and a varint sequence
//     number, echoed by its reply;
//   - the reply interval is elided entirely when it equals the request's
//     Remaining — the steady-state no-rebalance case, where the farmer's
//     intersection (eq. 14) returns exactly what the worker folded.
//
// Framing is uvarint(length) + body; the length is checked against
// MaxMessageBytes before the body is read, and intervals decode under
// interval.MaxDeltaBits, so the reject-before-materialize discipline of
// the srvConn/cliConn byte windows carries over (the windows themselves
// still run beneath this codec).
//
// Negotiation: after authentication the client sends wirePreamble and the
// server answers with an ack and the reference interval; a connection
// that opens with anything else is closed. Forward compatibility lives in
// two places and costs nothing: the preamble's version byte, and the
// optional fields of a frame, which trail its fixed layout behind flag or
// ext bits — a decoder skips bits it does not know and bytes it does not
// reach.
//
// This file is the bytes; Server and Client are the two loops that move
// them.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"repro/internal/interval"
)

// wirePreamble opens every connection, after authentication: a zero lead
// byte, the magic, and the dialect version.
var wirePreamble = [5]byte{0x00, 'G', 'B', 'W', 1}

// wireAck is the server's one-byte acceptance of the preamble, followed
// by the reference-interval frame.
const wireAck = 0x01

// maxWireRefBytes bounds the negotiated reference-interval frame.
const maxWireRefBytes = 1 << 16

// wireFlagError marks a response frame that carries an error string
// instead of a reply payload.
const wireFlagError = 0x01

// Method ids name the four calls on the wire.
const (
	wireRequestWork    = 0x01
	wireUpdateInterval = 0x02
	wireReportSolution = 0x03
	wireExchange       = 0x04
)

// readWireFrame reads one length-prefixed frame, reusing buf. The length
// is vetted against max before a byte of body is read.
func readWireFrame(br *bufio.Reader, max int64, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Both checks stay in uint64 space: converting n first would let a
	// 2^63-scale length wrap negative and reach make([]byte, n).
	if max > 0 && n > uint64(max) {
		return nil, fmt.Errorf("wire: %d-byte frame beyond %d: %w", n, max, ErrOversize)
	}
	if n > math.MaxInt {
		return nil, fmt.Errorf("wire: %d-byte frame beyond the platform int: %w", n, ErrOversize)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf, nil
}

// wireReader is a cursor over one frame body; errors stick so decode
// sequences read linearly and check once.
type wireReader struct {
	data []byte
	pos  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("wire: truncated body")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("wire: bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("wire: bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.data)-r.pos) < n {
		r.fail("wire: truncated string")
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *wireReader) interval(ref interval.Interval) interval.Interval {
	if r.err != nil {
		return interval.Interval{}
	}
	iv, n, err := interval.DecodeDelta(r.data[r.pos:], ref, 0)
	if err != nil {
		r.fail("wire: %v", err)
		return interval.Interval{}
	}
	r.pos += n
	return iv
}

func (r *wireReader) path() []int {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each path element is at least one varint byte.
	if uint64(len(r.data)-r.pos) < n {
		r.fail("wire: truncated path")
		return nil
	}
	p := make([]int, n)
	for i := range p {
		p[i] = int(r.varint())
	}
	return p
}

func appendWireStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendWirePath(dst []byte, p []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	for _, v := range p {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

func wireBool(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendWireBig encodes a non-negative big.Int as a length-prefixed
// big-endian byte string (the fold-content field; interval deltas have
// their own codec).
func appendWireBig(dst []byte, v *big.Int) []byte {
	b := v.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func (r *wireReader) big() *big.Int {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxWireRefBytes || uint64(len(r.data)-r.pos) < n {
		r.fail("wire: truncated big int")
		return nil
	}
	v := new(big.Int).SetBytes(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return v
}

// errWireType is the body codecs' verdict on a value that is not one of the
// protocol's messages. It deliberately does not format the value: naming
// it would make every message handed to a codec escape to the heap.
var errWireType = errors.New("wire: not a protocol message")

// Request payloads.

// appendWireRequestBody appends x's payload to dst; for UpdateRequest it
// also returns the encoded Remaining (aliasing body), which the caller
// keeps to restore an elided reply interval.
func appendWireRequestBody(dst []byte, ref interval.Interval, x any) (body []byte, intervalSeg []byte, err error) {
	switch q := x.(type) {
	case *WorkRequest:
		dst = appendWireStr(dst, string(q.Worker))
		dst = binary.AppendVarint(dst, q.Power)
		// Job trails the fixed layout behind an ext bitmask byte (1 = job
		// id), so an untagged request is exactly the fixed layout.
		if q.Job != "" {
			dst = append(dst, 1)
			dst = appendWireStr(dst, q.Job)
		}
	case *UpdateRequest:
		dst = appendWireStr(dst, string(q.Worker))
		dst = binary.AppendVarint(dst, q.IntervalID)
		p0 := len(dst)
		dst = q.Remaining.AppendDelta(dst, ref)
		intervalSeg = dst[p0:len(dst):len(dst)]
		dst = binary.AppendVarint(dst, q.Power)
		dst = binary.AppendVarint(dst, q.ExploredDelta)
		dst = binary.AppendVarint(dst, q.PrunedDelta)
		dst = binary.AppendVarint(dst, q.LeavesDelta)
		// Extensions trail the fixed layout behind a bitmask byte (1 = gap,
		// 2 = content, 4 = job id); a fold with none is the fixed layout.
		ext := byte(0)
		if q.HasGap {
			ext |= 1
		}
		if q.Content != nil {
			ext |= 2
		}
		if q.Job != "" {
			ext |= 4
		}
		if ext != 0 {
			dst = append(dst, ext)
			if q.HasGap {
				dst = q.Gap.AppendDelta(dst, ref)
			}
			if q.Content != nil {
				dst = appendWireBig(dst, q.Content)
			}
			if q.Job != "" {
				dst = appendWireStr(dst, q.Job)
			}
		}
	case *SolutionReport:
		dst = appendWireStr(dst, string(q.Worker))
		dst = binary.AppendVarint(dst, q.Cost)
		dst = appendWirePath(dst, q.Path)
		// Job trails the fixed layout behind an ext byte, like WorkRequest.
		if q.Job != "" {
			dst = append(dst, 1)
			dst = appendWireStr(dst, q.Job)
		}
	case *BatchRequest:
		dst = appendWireStr(dst, string(q.Worker))
		dst = binary.AppendVarint(dst, q.Power)
		var f byte
		if q.HasFold {
			f |= 1
		}
		if q.HasReport {
			f |= 2
		}
		if q.WantWork {
			f |= 4
		}
		if q.HasFoldGap {
			f |= 8
		}
		if q.FoldContent != nil {
			f |= 16
		}
		dst = append(dst, f)
		if q.HasFold {
			dst = binary.AppendVarint(dst, q.FoldID)
			dst = q.Remaining.AppendDelta(dst, ref)
			dst = binary.AppendVarint(dst, q.ExploredDelta)
			dst = binary.AppendVarint(dst, q.PrunedDelta)
			dst = binary.AppendVarint(dst, q.LeavesDelta)
		}
		if q.HasReport {
			dst = binary.AppendVarint(dst, q.Cost)
			dst = appendWirePath(dst, q.Path)
		}
		// Gap and content trail the legs, each behind its flag bit.
		if q.HasFoldGap {
			dst = q.FoldGap.AppendDelta(dst, ref)
		}
		if q.FoldContent != nil {
			dst = appendWireBig(dst, q.FoldContent)
		}
	default:
		return dst, nil, errWireType
	}
	return dst, intervalSeg, nil
}

// decodeWireRequestBody fills x from r; for UpdateRequest it also returns
// the raw byte segment of the encoded Remaining (aliasing r.data), for
// reply elision.
func decodeWireRequestBody(r *wireReader, ref interval.Interval, x any) (intervalSeg []byte) {
	switch q := x.(type) {
	case *WorkRequest:
		q.Worker = WorkerID(r.str())
		q.Power = r.varint()
		if r.err == nil && r.pos < len(r.data) {
			ext := r.byte()
			if ext&1 != 0 {
				j := r.str()
				if r.err == nil {
					q.Job = j
				}
			}
		}
	case *UpdateRequest:
		q.Worker = WorkerID(r.str())
		q.IntervalID = r.varint()
		p0 := r.pos
		q.Remaining = r.interval(ref)
		if r.err == nil {
			intervalSeg = r.data[p0:r.pos]
		}
		q.Power = r.varint()
		q.ExploredDelta = r.varint()
		q.PrunedDelta = r.varint()
		q.LeavesDelta = r.varint()
		// Optional trailing extensions behind a bitmask byte: 1 = delta-coded
		// gap interval, 2 = fold-content length, 4 = job id. Unknown bits are
		// future extensions this decoder ignores, with whatever trails them.
		if r.err == nil && r.pos < len(r.data) {
			ext := r.byte()
			if ext&1 != 0 {
				g := r.interval(ref)
				if r.err == nil {
					q.HasGap, q.Gap = true, g
				}
			}
			if ext&2 != 0 {
				c := r.big()
				if r.err == nil {
					q.Content = c
				}
			}
			if ext&4 != 0 {
				j := r.str()
				if r.err == nil {
					q.Job = j
				}
			}
		}
	case *SolutionReport:
		q.Worker = WorkerID(r.str())
		q.Cost = r.varint()
		q.Path = r.path()
		if r.err == nil && r.pos < len(r.data) {
			ext := r.byte()
			if ext&1 != 0 {
				j := r.str()
				if r.err == nil {
					q.Job = j
				}
			}
		}
	case *BatchRequest:
		q.Worker = WorkerID(r.str())
		q.Power = r.varint()
		f := r.byte()
		q.HasFold = f&1 != 0
		q.HasReport = f&2 != 0
		q.WantWork = f&4 != 0
		if q.HasFold {
			q.FoldID = r.varint()
			q.Remaining = r.interval(ref)
			q.ExploredDelta = r.varint()
			q.PrunedDelta = r.varint()
			q.LeavesDelta = r.varint()
		}
		if q.HasReport {
			q.Cost = r.varint()
			q.Path = r.path()
		}
		if f&8 != 0 {
			g := r.interval(ref)
			if r.err == nil {
				q.HasFoldGap, q.FoldGap = true, g
			}
		}
		if f&16 != 0 {
			c := r.big()
			if r.err == nil {
				q.FoldContent = c
			}
		}
	default:
		r.err = errWireType
	}
	return intervalSeg
}

// Reply payloads.

func appendWireReplyBody(dst []byte, ref interval.Interval, x any, elideWant []byte) ([]byte, error) {
	switch p := x.(type) {
	case *WorkReply:
		dst = binary.AppendVarint(dst, int64(p.Status))
		dst = binary.AppendVarint(dst, p.IntervalID)
		dst = p.Interval.AppendDelta(dst, ref)
		dst = binary.AppendVarint(dst, p.BestCost)
		dst = append(dst, wireBool(p.Duplicated))
		// Job trails the fixed layout behind an ext byte, like WorkRequest.
		if p.Job != "" {
			dst = append(dst, 1)
			dst = appendWireStr(dst, p.Job)
		}
	case *UpdateReply:
		// The flag byte is patched in once the elision is decided: the
		// interval is encoded in place and cut off again when it matches.
		f0 := len(dst)
		dst = p.Interval.AppendDelta(append(dst, 0), ref)
		elide := elideWant != nil && bytes.Equal(dst[f0+1:], elideWant)
		if elide {
			dst = dst[:f0+1]
		}
		var f byte
		if p.Finished {
			f |= 1
		}
		if p.Known {
			f |= 2
		}
		if elide {
			f |= 4
		}
		if p.Hint != nil {
			f |= 8
		}
		dst[f0] = f
		dst = binary.AppendVarint(dst, p.BestCost)
		// The hint trails the fixed layout behind its flag bit.
		if p.Hint != nil {
			dst = binary.AppendVarint(dst, p.Hint.Others)
			dst = binary.AppendVarint(dst, p.Hint.RichestBits)
		}
	case *SolutionAck:
		dst = binary.AppendVarint(dst, p.BestCost)
		dst = append(dst, wireBool(p.Accepted))
	case *BatchReply:
		var f byte
		if p.HasFold {
			f |= 1
		}
		if p.Finished {
			f |= 2
		}
		if p.Known {
			f |= 4
		}
		if p.HasWork {
			f |= 8
		}
		if p.Duplicated {
			f |= 16
		}
		if p.Hint != nil {
			f |= 32
		}
		dst = append(dst, f)
		if p.HasFold {
			dst = p.Interval.AppendDelta(dst, ref)
		}
		if p.HasWork {
			dst = binary.AppendVarint(dst, int64(p.Status))
			dst = binary.AppendVarint(dst, p.IntervalID)
			dst = p.WorkInterval.AppendDelta(dst, ref)
		}
		dst = binary.AppendVarint(dst, p.BestCost)
		// Trailing hint, as in UpdateReply.
		if p.Hint != nil {
			dst = binary.AppendVarint(dst, p.Hint.Others)
			dst = binary.AppendVarint(dst, p.Hint.RichestBits)
		}
	default:
		return dst, errWireType
	}
	return dst, nil
}

// decodeWireReplyBody fills x from r; stashed is the encoded Remaining of
// the matching request, decoded in place of an elided reply interval.
func decodeWireReplyBody(r *wireReader, ref interval.Interval, x any, stashed []byte) {
	switch p := x.(type) {
	case *WorkReply:
		p.Status = WorkStatus(r.varint())
		p.IntervalID = r.varint()
		p.Interval = r.interval(ref)
		p.BestCost = r.varint()
		p.Duplicated = r.byte() != 0
		if r.err == nil && r.pos < len(r.data) {
			ext := r.byte()
			if ext&1 != 0 {
				j := r.str()
				if r.err == nil {
					p.Job = j
				}
			}
		}
	case *UpdateReply:
		f := r.byte()
		p.Finished = f&1 != 0
		p.Known = f&2 != 0
		if f&4 != 0 {
			if stashed == nil {
				r.fail("wire: elided reply interval with no request copy")
				return
			}
			iv, n, err := interval.DecodeDelta(stashed, ref, 0)
			if err != nil || n != len(stashed) {
				r.fail("wire: bad stashed interval: %v", err)
				return
			}
			p.Interval = iv
		} else {
			p.Interval = r.interval(ref)
		}
		p.BestCost = r.varint()
		if f&8 != 0 {
			h := &StealHint{Others: r.varint(), RichestBits: r.varint()}
			if r.err == nil {
				p.Hint = h
			}
		}
	case *SolutionAck:
		p.BestCost = r.varint()
		p.Accepted = r.byte() != 0
	case *BatchReply:
		f := r.byte()
		p.HasFold = f&1 != 0
		p.Finished = f&2 != 0
		p.Known = f&4 != 0
		p.HasWork = f&8 != 0
		p.Duplicated = f&16 != 0
		if p.HasFold {
			p.Interval = r.interval(ref)
		}
		if p.HasWork {
			p.Status = WorkStatus(r.varint())
			p.IntervalID = r.varint()
			p.WorkInterval = r.interval(ref)
		}
		p.BestCost = r.varint()
		if f&32 != 0 {
			h := &StealHint{Others: r.varint(), RichestBits: r.varint()}
			if r.err == nil {
				p.Hint = h
			}
		}
	default:
		r.err = errWireType
	}
}

// A frame is built in one buffer: wireFrameHead bytes are kept free in
// front of the body, and the body's uvarint length is written right-aligned
// into them once it is known — one buffer, one Write per frame.
const wireFrameHead = binary.MaxVarintLen64

// beginWireFrame resets buf to an empty body behind the head room and
// opens it with the call's method id and sequence number.
func beginWireFrame(buf []byte, method byte, seq uint64) []byte {
	var head [wireFrameHead]byte
	buf = append(append(buf[:0], head[:]...), method)
	return binary.AppendUvarint(buf, seq)
}

// endWireFrame prefixes the finished body with its length and returns the
// bytes to send (a suffix of buf).
func endWireFrame(buf []byte) []byte {
	var head [wireFrameHead]byte
	n := binary.PutUvarint(head[:], uint64(len(buf)-wireFrameHead))
	start := wireFrameHead - n
	copy(buf[start:], head[:n])
	return buf[start:]
}

// negotiateWire runs the client half of the negotiation over an
// authenticated connection and returns the buffered reader the replies
// will arrive on and the reference interval. Any failure leaves the
// connection unusable; the caller closes it.
func negotiateWire(conn io.ReadWriter) (*bufio.Reader, interval.Interval, error) {
	var ref interval.Interval
	if _, err := conn.Write(wirePreamble[:]); err != nil {
		return nil, ref, err
	}
	br := bufio.NewReader(conn)
	ack, err := br.ReadByte()
	if err != nil {
		return nil, ref, fmt.Errorf("wire: peer rejected preamble: %w", err)
	}
	if ack != wireAck {
		return nil, ref, fmt.Errorf("wire: bad negotiation ack 0x%02x", ack)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, ref, fmt.Errorf("wire: reference frame: %w", err)
	}
	if n > maxWireRefBytes {
		return nil, ref, fmt.Errorf("wire: %d-byte reference frame: %w", n, ErrOversize)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, ref, fmt.Errorf("wire: reference frame: %w", err)
	}
	ref, used, err := interval.DecodeDelta(buf, interval.Interval{}, 0)
	if err != nil || used != len(buf) {
		return nil, ref, fmt.Errorf("wire: bad reference interval: %v", err)
	}
	return br, ref, nil
}

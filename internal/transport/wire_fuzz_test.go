package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"

	"repro/internal/interval"
)

// FuzzWireFrame drives arbitrary bytes through the compact dialect's whole
// inbound surface: the length-prefixed frame reader, the server's
// dispatchWireFrame (every method id, known and unknown), and the
// client-side reply header/body decode — error-flag frames included, and
// elided replies both with and without a stashed request interval. The
// properties are the codec's safety contract: no panic and no allocation
// beyond the vetted frame length on any input, and every malformed body
// surfaced as a wireReader error rather than a partially-filled struct
// being silently accepted where the frame had trailing garbage in a
// mandatory field. Decodable replies must also survive a re-encode →
// re-decode round trip (the fuzzer's check that the optional trailing
// StealHint stays optional: old frames without it and new frames with it
// both land on the same struct).
func FuzzWireFrame(f *testing.F) {
	ref := interval.New(big.NewInt(0), new(big.Int).Lsh(big.NewInt(1), 120))
	someIv := interval.New(big.NewInt(5), new(big.Int).Lsh(big.NewInt(1), 100))

	frame := func(method byte, seq uint64, body []byte) []byte {
		b := []byte{method}
		b = binary.AppendUvarint(b, seq)
		return append(b, body...)
	}
	// Valid request frames, one per method.
	wr, _, _ := appendWireRequestBody(nil, ref, &WorkRequest{Worker: "w", Power: 7})
	f.Add(frame(wireRequestWork, 1, wr))
	ur, _, _ := appendWireRequestBody(nil, ref, &UpdateRequest{Worker: "w", IntervalID: 3, Remaining: someIv, Power: 7, ExploredDelta: 10})
	f.Add(frame(wireUpdateInterval, 2, ur))
	sr, _, _ := appendWireRequestBody(nil, ref, &SolutionReport{Worker: "w", Cost: 42, Path: []int{1, 2, 3}})
	f.Add(frame(wireReportSolution, 3, sr))
	br, _, _ := appendWireRequestBody(nil, ref, &BatchRequest{Worker: "w", Power: 7, HasFold: true, FoldID: 3, Remaining: someIv, HasReport: true, Cost: 42, WantWork: true})
	f.Add(frame(wireExchange, 4, br))
	// Valid reply frames: plain, hinted, elided, and an error frame.
	rb, _ := appendWireReplyBody([]byte{0}, ref, &UpdateReply{Known: true, Interval: someIv, BestCost: 9}, nil)
	f.Add(frame(wireUpdateInterval, 2, rb))
	rh, _ := appendWireReplyBody([]byte{0}, ref, &UpdateReply{Known: true, Interval: someIv, BestCost: 9, Hint: &StealHint{Others: 2, RichestBits: 77}}, nil)
	f.Add(frame(wireUpdateInterval, 2, rh))
	stash := someIv.AppendDelta(nil, ref)
	re, _ := appendWireReplyBody([]byte{0}, ref, &UpdateReply{Known: true, Interval: someIv, BestCost: 9}, stash)
	f.Add(frame(wireUpdateInterval, 2, re))
	bb, _ := appendWireReplyBody([]byte{0}, ref, &BatchReply{HasFold: true, Known: true, Interval: someIv, HasWork: true, Status: WorkAssigned, IntervalID: 5, WorkInterval: someIv, BestCost: 9, Hint: &StealHint{Others: 1, RichestBits: 3}}, nil)
	f.Add(frame(wireExchange, 4, bb))
	f.Add(frame(wireUpdateInterval, 2, append([]byte{wireFlagError}, appendWireStr(nil, "boom")...)))
	f.Add(frame(0x7f, 9, []byte{1, 2, 3})) // unknown method id

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame reader: the input is a frame body; vet the length path.
		framed := binary.AppendUvarint(nil, uint64(len(data)))
		framed = append(framed, data...)
		got, err := readWireFrame(bufio.NewReader(bytes.NewReader(framed)), 1<<20, nil)
		if err != nil {
			t.Fatalf("readWireFrame rejected a well-framed %d-byte body: %v", len(data), err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("readWireFrame mangled the body")
		}
		// And the hostile path: the raw input as a frame stream (arbitrary
		// length prefix, possibly oversize or truncated) must error or
		// yield a body, never panic.
		_, _ = readWireFrame(bufio.NewReader(bytes.NewReader(data)), 256, nil)

		// Server side: the frame loop's own decode-and-dispatch, against a
		// canned coordinator. Whatever comes back — a reply, or an error
		// frame for an unknown id or an undecodable body — must encode to
		// a frame that echoes the request's sequence number.
		if a, ok := dispatchWireFrame(stubCoord{}, ref, data); ok {
			out := wireReader{data: a.appendFrame(nil, ref)[wireFrameHead:]}
			out.byte()
			if seq := out.uvarint(); out.err != nil || seq != a.seq {
				t.Fatalf("answer frame echoes seq %d (err %v), request had %d", seq, out.err, a.seq)
			}
			if flags := out.byte(); (flags&wireFlagError != 0) != (a.err != nil) {
				t.Fatalf("answer frame flags %#x for err %v", flags, a.err)
			}
		}

		// Client side: reply header then body, with and without a stash.
		rr := wireReader{data: data}
		mid := rr.byte()
		rr.uvarint() // seq
		flags := rr.byte()
		if rr.err != nil {
			return
		}
		if flags&wireFlagError != 0 {
			rr.str()
			return
		}
		body := data[rr.pos:]
		for _, stashed := range [][]byte{nil, stash} {
			var y any
			switch mid {
			case wireRequestWork:
				y = new(WorkReply)
			case wireUpdateInterval:
				y = new(UpdateReply)
			case wireReportSolution:
				y = new(SolutionAck)
			case wireExchange:
				y = new(BatchReply)
			default:
				return
			}
			dr := wireReader{data: body}
			decodeWireReplyBody(&dr, ref, y, stashed)
			if dr.err != nil {
				continue
			}
			// Round trip: a decodable reply re-encodes to a frame that
			// decodes to the same struct — the canonical-form check that
			// keeps the optional hint and the elision flag honest.
			enc, err := appendWireReplyBody(nil, ref, y, nil)
			if err != nil {
				t.Fatalf("re-encode of a decoded %T failed: %v", y, err)
			}
			var z any
			switch y.(type) {
			case *WorkReply:
				z = new(WorkReply)
			case *UpdateReply:
				z = new(UpdateReply)
			case *SolutionAck:
				z = new(SolutionAck)
			case *BatchReply:
				z = new(BatchReply)
			}
			zr := wireReader{data: enc}
			decodeWireReplyBody(&zr, ref, z, nil)
			if zr.err != nil {
				t.Fatalf("re-decode of a re-encoded %T failed: %v", y, zr.err)
			}
			if !replyEqual(y, z) {
				t.Fatalf("round trip drifted:\n first: %+v\nsecond: %+v", y, z)
			}
		}
	})
}

func replyEqual(a, b any) bool {
	switch x := a.(type) {
	case *WorkReply:
		y := b.(*WorkReply)
		return x.Status == y.Status && x.IntervalID == y.IntervalID &&
			x.Interval.Equal(y.Interval) && x.BestCost == y.BestCost && x.Duplicated == y.Duplicated
	case *UpdateReply:
		y := b.(*UpdateReply)
		return x.Finished == y.Finished && x.Known == y.Known &&
			x.Interval.Equal(y.Interval) && x.BestCost == y.BestCost && hintEqual(x.Hint, y.Hint)
	case *SolutionAck:
		y := b.(*SolutionAck)
		return x.BestCost == y.BestCost && x.Accepted == y.Accepted
	case *BatchReply:
		y := b.(*BatchReply)
		return x.HasFold == y.HasFold && x.Finished == y.Finished && x.Known == y.Known &&
			x.Interval.Equal(y.Interval) && x.HasWork == y.HasWork && x.Status == y.Status &&
			x.IntervalID == y.IntervalID && x.WorkInterval.Equal(y.WorkInterval) &&
			x.Duplicated == y.Duplicated && x.BestCost == y.BestCost && hintEqual(x.Hint, y.Hint)
	}
	return false
}

func hintEqual(a, b *StealHint) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Others == b.Others && a.RichestBits == b.RichestBits
}

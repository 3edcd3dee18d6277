package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/interval"
)

// stubCoord is a canned Coordinator for codec-level tests (the real
// farmer lives above this package and cannot be imported here).
type stubCoord struct{}

func (stubCoord) RequestWork(WorkRequest) (WorkReply, error) {
	return WorkReply{Status: WorkAssigned, IntervalID: 7, Interval: interval.FromInt64(0, 10), BestCost: 42}, nil
}
func (stubCoord) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	return UpdateReply{Known: true, Interval: req.Remaining}, nil
}
func (stubCoord) ReportSolution(SolutionReport) (SolutionAck, error) {
	return SolutionAck{Accepted: true}, nil
}

// TestReadWireFrameLengthOverflow: a frame header claiming ~2^63 bytes
// must be rejected before allocation. Converting the uvarint length to
// int64 first would wrap it negative, slipping past the size window into
// a panicking make — a 10-byte header killing coordinator or worker.
func TestReadWireFrameLengthOverflow(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, 1 << 63, math.MaxInt64 + 1} {
		hdr := binary.AppendUvarint(nil, n)
		br := bufio.NewReader(bytes.NewReader(hdr))
		if _, err := readWireFrame(br, DefaultMaxMessageBytes, nil); err == nil {
			t.Fatalf("length %#x passed the %d-byte window", n, int64(DefaultMaxMessageBytes))
		}
	}
	// With the window disabled (negative max), lengths beyond the platform
	// int must still be refused rather than handed to make.
	hdr := binary.AppendUvarint(nil, math.MaxUint64)
	br := bufio.NewReader(bytes.NewReader(hdr))
	if _, err := readWireFrame(br, -1, nil); err == nil {
		t.Fatal("MaxUint64 length passed with the size window disabled")
	}
}

// pipeServer runs the real serveConn loop for coord over one end of a
// net.Pipe and returns the other end, negotiated: the buffered reader the
// replies arrive on and the reference interval the server announced.
func pipeServer(t *testing.T, coord Coordinator, ref interval.Interval) (net.Conn, *bufio.Reader) {
	t.Helper()
	cliSide, srvSide := net.Pipe()
	t.Cleanup(func() { cliSide.Close() })
	s := &Server{
		coord: coord,
		opts:  ServerOptions{WireRef: ref, MaxMessageBytes: DefaultMaxMessageBytes},
		conns: make(map[*srvConn]struct{}),
	}
	go s.serveConn(srvSide)
	cliSide.SetDeadline(time.Now().Add(5 * time.Second))
	br, got, err := negotiateWire(cliSide)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatalf("negotiated reference %v, want %v", got, ref)
	}
	return cliSide, br
}

// TestWireServerSurvivesUnknownMethodID: the forward-compatibility half of
// the dialect matrix — a frame with a method id this server does not know
// must come back as an error frame on a connection that stays alive for
// the next, known frame. Driven through the server's own frame loop.
func TestWireServerSurvivesUnknownMethodID(t *testing.T) {
	ref := interval.FromInt64(0, 1000)
	cliSide, br := pipeServer(t, stubCoord{}, ref)
	send := func(body []byte) {
		t.Helper()
		frame := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		if _, err := cliSide.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *wireReader {
		t.Helper()
		frame, err := readWireFrame(br, DefaultMaxMessageBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &wireReader{data: frame}
	}

	// A frame with method id 0x7F, which no dialect version defines.
	send([]byte{0x7F, 0x01})
	r := recv()
	r.byte() // method id echo (zero for the unknown method)
	if seq := r.uvarint(); seq != 1 {
		t.Fatalf("response seq = %d, want 1", seq)
	}
	if flags := r.byte(); flags&wireFlagError == 0 {
		t.Fatal("unknown method id did not come back as an error response")
	}
	if msg := r.str(); !strings.Contains(msg, "unknown method id 0x7f") {
		t.Fatalf("unknown-id error = %q, want it to name the id", msg)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}

	// The connection survived: a well-formed RequestWork frame still works.
	body := []byte{wireRequestWork, 0x02}
	body, _, err := appendWireRequestBody(body, ref, &WorkRequest{Worker: "w", Power: 3})
	if err != nil {
		t.Fatal(err)
	}
	send(body)
	r = recv()
	if mid := r.byte(); mid != wireRequestWork {
		t.Fatalf("reply method id = %#x", mid)
	}
	if seq := r.uvarint(); seq != 2 {
		t.Fatalf("reply seq = %d, want 2", seq)
	}
	if flags := r.byte(); flags&wireFlagError != 0 {
		t.Fatalf("live frame after unknown id failed: %q", r.str())
	}
	var reply WorkReply
	decodeWireReplyBody(r, ref, &reply, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if reply.Status != WorkAssigned || reply.IntervalID != 7 || reply.BestCost != 42 {
		t.Fatalf("reply after unknown frame = %+v", reply)
	}
}

// TestWireFrameExtensions pins the one forward-compatibility mechanism of
// the codec: optional fields trail a frame's fixed layout behind flag or
// ext bits. For every message that has optionals the table checks that a
// frame without them is exactly the committed fixed layout (so single-job,
// hint-less traffic never grows) and decodes with the optionals zero; that
// the optionals — Job tags on all three worker messages and the work
// reply, gap/content, steal hints — round-trip; and that a set-but-unknown
// bit and whatever trails the known fields are skipped, not rejected.
func TestWireFrameExtensions(t *testing.T) {
	ref := interval.FromInt64(0, 1_000_000)
	gap := interval.FromInt64(40_000, 90_000)
	hint := &StealHint{Others: 5, RichestBits: 31}
	// future marks a frame as coming from a later dialect revision: an
	// unknown bit set in the flag/ext byte at off (appended when the frame
	// ends before it), and bytes no current decoder reaches.
	future := func(off int) func([]byte) []byte {
		return func(enc []byte) []byte {
			if off == len(enc) {
				enc = append(enc, 0)
			}
			enc[off] |= 0x80
			return append(enc, 0xde, 0xad)
		}
	}
	plainUpdate := &UpdateRequest{
		Worker: "w", IntervalID: 4, Remaining: interval.FromInt64(5, 500),
		Power: 9, ExploredDelta: 10, PrunedDelta: 11, LeavesDelta: 12,
	}
	fullUpdate := *plainUpdate
	fullUpdate.HasGap, fullUpdate.Gap = true, gap
	fullUpdate.Content, fullUpdate.Job = big.NewInt(123_456), "job-b"
	jobUpdate := *plainUpdate
	jobUpdate.Job = "job-e"
	plainUpdateReply := &UpdateReply{Known: true, Interval: interval.FromInt64(5, 500), BestCost: 3}
	plainBatch := &BatchRequest{
		Worker: "s", Power: 2, HasFold: true, FoldID: 3, Remaining: interval.FromInt64(1000, 800_000),
		ExploredDelta: 5, HasReport: true, Cost: 1109, Path: []int{3, 1, 2}, WantWork: true,
	}
	fullBatch := *plainBatch
	fullBatch.HasFoldGap, fullBatch.FoldGap, fullBatch.FoldContent = true, gap, big.NewInt(424_242)
	plainBatchReply := &BatchReply{
		HasFold: true, Known: true, Interval: interval.FromInt64(50, 600),
		HasWork: true, Status: WorkAssigned, IntervalID: 9, WorkInterval: interval.FromInt64(600, 900),
		Duplicated: true, BestCost: 42,
	}
	hintedBatchReply := *plainBatchReply
	hintedBatchReply.Hint = hint

	for _, tc := range []struct {
		name string
		msg  any                 // encoded
		wire func([]byte) []byte // rewrites the encoding before the decode; the decode must still equal msg
		hex  string              // committed encoding of msg; "" skips the check
	}{
		{name: "WorkRequest", msg: &WorkRequest{Worker: "w", Power: 1}, hex: "017702"},
		{name: "WorkRequest+job", msg: &WorkRequest{Worker: "w-1", Power: 640, Job: "job-a"}},
		{name: "WorkRequest+future", msg: &WorkRequest{Worker: "w", Power: 1}, wire: future(3)},
		{name: "UpdateRequest", msg: plainUpdate, hex: "0177080205060f404c12141618"},
		{name: "UpdateRequest+gap+content+job", msg: &fullUpdate},
		{name: "UpdateRequest+job", msg: &jobUpdate},
		{name: "UpdateRequest+future", msg: plainUpdate, wire: future(13)},
		{name: "UpdateRequest+job+future", msg: &jobUpdate, wire: future(13)},
		{name: "SolutionReport", msg: &SolutionReport{Worker: "w", Cost: 1, Path: []int{1}}, hex: "0177020102"},
		{name: "SolutionReport+job", msg: &SolutionReport{Worker: "w-3", Cost: 42, Path: []int{1, 2, 3}, Job: "job-c"}},
		{name: "SolutionReport+future", msg: &SolutionReport{Worker: "w", Cost: 1, Path: []int{1}}, wire: future(5)},
		{name: "WorkReply", msg: &WorkReply{Status: WorkWait}, hex: "020000060f42400000"},
		{name: "WorkReply+job", msg: &WorkReply{Status: WorkAssigned, IntervalID: 9, Interval: interval.FromInt64(50, 500), BestCost: 7, Duplicated: true, Job: "job-d"}},
		{name: "WorkReply+future", msg: &WorkReply{Status: WorkWait}, wire: future(9)},
		{name: "UpdateReply", msg: plainUpdateReply, hex: "020205060f404c06"},
		{name: "UpdateReply+hint", msg: &UpdateReply{Known: true, Interval: interval.FromInt64(5, 500), BestCost: 3, Hint: hint}},
		{name: "UpdateReply+future", msg: plainUpdateReply, wire: future(0)},
		{name: "BatchRequest", msg: plainBatch, hex: "01730407060403e806030d400a0000aa1103060204"},
		{name: "BatchRequest+gap+content", msg: &fullBatch},
		{name: "BatchRequest+future", msg: plainBatch, wire: future(3)},
		{name: "BatchReply", msg: plainBatchReply, hex: "1d0232060f3fe80012040258060f3ebc54"},
		{name: "BatchReply+hint", msg: &hintedBatchReply},
		{name: "BatchReply+future", msg: plainBatchReply, wire: future(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encode := func(x any) []byte {
				t.Helper()
				var enc []byte
				var err error
				switch x.(type) {
				case *WorkReply, *UpdateReply, *BatchReply:
					enc, err = appendWireReplyBody(nil, ref, x, nil)
				default:
					enc, _, err = appendWireRequestBody(nil, ref, x)
				}
				if err != nil {
					t.Fatal(err)
				}
				return enc
			}
			enc := encode(tc.msg)
			if tc.hex != "" && hex.EncodeToString(enc) != tc.hex {
				t.Fatalf("frame without optionals = %x, committed layout is %s", enc, tc.hex)
			}
			if tc.wire != nil {
				enc = tc.wire(enc)
			}
			got := reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface()
			r := &wireReader{data: enc}
			switch got.(type) {
			case *WorkReply, *UpdateReply, *BatchReply:
				decodeWireReplyBody(r, ref, got, nil)
			default:
				decodeWireRequestBody(r, ref, got)
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			// Compared through the canonical encoding, which covers every
			// field on the wire.
			if !bytes.Equal(encode(got), encode(tc.msg)) {
				t.Fatalf("decoded %+v, want %+v", got, tc.msg)
			}
		})
	}
}

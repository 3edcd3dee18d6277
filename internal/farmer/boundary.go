// The coordinator boundary: shape validation of every inbound protocol
// message, following PR 5's power-claim discipline — enforce at the
// boundary, reject-and-count, never store. The transport layer already
// bounds whole messages in bytes; this layer bounds the fields gob will
// happily decode within that budget (a quarter-megabyte bignum interval, a
// hundred-thousand-element path, a worker id used as a storage channel)
// and, when the farmer knows its root range, pins every inbound interval
// inside it.
//
// What this layer deliberately does NOT defend: progress honesty. A peer
// that presents a valid interval id is trusted as that interval's owner,
// and an owner's report of its remaining interval is taken at face value —
// that trust is the paper's model (§4.1), and identity is the TLS layer's
// job. The boundary bounds message shape, not truthfulness.
package farmer

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/transport"
)

const (
	// MaxWorkerIDBytes bounds the worker-chosen identifier. Hostnames,
	// pids and indices fit in a fraction of this; anything longer is a
	// peer using the id as a payload channel.
	MaxWorkerIDBytes = 128
	// MaxPathLen bounds a solution path's rank count. Tree depth equals
	// path length, and no instance the coding targets is thousands of
	// levels deep.
	MaxPathLen = 1 << 12
	// MaxIntervalBits bounds the bit length of an inbound interval's
	// bounds. Node numbers grow with the factorial of the tree depth —
	// 500! is about 3700 bits — so 2^16 bits of headroom accepts any
	// plausible instance while rejecting megabyte bignums long before a
	// comparison walks them.
	MaxIntervalBits = 1 << 16
)

// truncID renders a worker id for error messages without echoing a
// hostile payload back at full length.
func truncID(w transport.WorkerID) string {
	if len(w) > 32 {
		return string(w[:32]) + "..."
	}
	return string(w)
}

// vetWorkerLocked bounds the worker identifier; it returns a non-empty
// reason on rejection and charges OversizeMessages. The per-operation
// rejection counter is the call site's responsibility.
func (f *Farmer) vetWorkerLocked(w transport.WorkerID) string {
	if len(w) > MaxWorkerIDBytes {
		f.counters.OversizeMessages++
		return fmt.Sprintf("worker id of %d bytes exceeds %d", len(w), MaxWorkerIDBytes)
	}
	return ""
}

// vetIntervalLocked checks one inbound interval's shape: bounded bit
// length always; when the farmer knows its root range (root non-empty),
// non-empty intervals must lie within it. Empty intervals pass on content
// — an empty remainder is the normal "I finished" checkpoint, and
// sub-farmer stat flushes carry zero-value intervals by design. Error
// messages carry sizes, never the hostile values themselves.
func (f *Farmer) vetIntervalLocked(iv interval.Interval) string {
	if iv.MaxBitLen() > MaxIntervalBits {
		f.counters.OversizeMessages++
		return fmt.Sprintf("interval bounds of %d bits exceed %d", iv.MaxBitLen(), MaxIntervalBits)
	}
	if iv.IsEmpty() {
		return ""
	}
	if !f.root.IsEmpty() {
		if !f.root.ContainsInterval(iv) {
			return "interval outside the root range"
		}
		return ""
	}
	// No root knowledge (a sub-farmer's inner table grows by upstream
	// grants): structural checks only.
	if iv.Lo().Sign() < 0 {
		return "negative interval beginning"
	}
	return ""
}

// vetUpdateLocked validates an UpdateRequest before any of its fields
// reach farmer state. Stats deltas are accumulated into global counters,
// so a negative delta is a hostile attempt to unwind them.
func (f *Farmer) vetUpdateLocked(req transport.UpdateRequest) string {
	if reason := f.vetWorkerLocked(req.Worker); reason != "" {
		return reason
	}
	if req.ExploredDelta < 0 || req.PrunedDelta < 0 || req.LeavesDelta < 0 {
		return "negative progress delta"
	}
	return f.vetIntervalLocked(req.Remaining)
}

// vetReportLocked validates a SolutionReport before it can touch SOLUTION.
func (f *Farmer) vetReportLocked(req transport.SolutionReport) string {
	if reason := f.vetWorkerLocked(req.Worker); reason != "" {
		return reason
	}
	if len(req.Path) > MaxPathLen {
		f.counters.OversizeMessages++
		return fmt.Sprintf("path of %d ranks exceeds %d", len(req.Path), MaxPathLen)
	}
	for _, r := range req.Path {
		if r < 0 {
			return "negative rank in path"
		}
	}
	return ""
}

package farmer

import (
	"math"

	"repro/internal/interval"
	"repro/internal/transport"
)

// This file is the farmer's scalability layer (DESIGN.md §8): the selection
// index answering the §4.2 selection operator in O(G·log W) instead of a
// full O(W) scan over INTERVALS (W tracked intervals, G distinct holder
// powers — a handful on a real pool, where host speeds come in classes),
// and the lease heap answering "is any owner expirable?" with one peek
// instead of an O(W·owners) sweep per request. Both preserve the seed
// semantics exactly — selection decisions are byte-identical to the linear
// scan, pinned by the oracle test in index_oracle_test.go.
//
// Why the index is grouped by holder power: the donated length
//
//	donated(len, hp, rp) = ⌊len·rp/(hp+rp)⌋   (len when hp ≤ 0)
//
// depends on the requester power rp, which differs per request, so no
// single static order over INTERVALS ranks candidates for every rp (two
// intervals can swap order as rp grows). Within one holder-power class,
// though, donated is non-decreasing in len for every rp, so the class
// winner is always a maximum-length entry — an O(log W) treap lookup — and
// only one donated evaluation per class is needed. Ties are the delicate
// part: ⌊·⌋ collapses a whole run of lengths onto the same donated value,
// and the seed scan breaks such ties by smallest id across ALL of
// INTERVALS. The treap is therefore keyed (len, id) and augmented with the
// subtree-minimum id, so "smallest id among entries of length ≥ L" — the
// exact achiever set of the class maximum, L = ⌈D·(hp+rp)/rp⌉ — is one
// O(log W) descent.

// selNode is one treap entry. The treap is keyed by (t.idxLen, t.id)
// ascending and heap-ordered by pri; minID is the smallest tracked id in
// the subtree, maintained by every rotation and merge.
type selNode struct {
	t           *tracked
	left, right *selNode
	pri         uint64
	minID       int64
}

// update recomputes the minID augmentation from the children.
func (n *selNode) update() {
	m := n.t.id
	if n.left != nil && n.left.minID < m {
		m = n.left.minID
	}
	if n.right != nil && n.right.minID < m {
		m = n.right.minID
	}
	n.minID = m
}

// cmpKey orders the search key (length, id) against a node's key.
func cmpKey(length interval.Num, id int64, n *selNode) int {
	if c := length.Cmp(n.t.idxLen); c != 0 {
		return c
	}
	switch {
	case id < n.t.id:
		return -1
	case id > n.t.id:
		return 1
	}
	return 0
}

func rotateRight(n *selNode) *selNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *selNode) *selNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

// insertNode inserts n (its key fields already set) and returns the new
// root. n is always a fresh or freshly detached node: its children are
// overwritten.
func insertNode(root, n *selNode) *selNode {
	if root == nil {
		n.left, n.right = nil, nil
		n.update()
		return n
	}
	if cmpKey(n.t.idxLen, n.t.id, root) < 0 {
		root.left = insertNode(root.left, n)
		if root.left.pri > root.pri {
			root = rotateRight(root)
		} else {
			root.update()
		}
	} else {
		root.right = insertNode(root.right, n)
		if root.right.pri > root.pri {
			root = rotateLeft(root)
		} else {
			root.update()
		}
	}
	return root
}

// deleteNode removes the node with the given key and returns the new root
// and the detached node (nil if absent). The detached node is returned so
// re-keying reuses it — the steady-state checkpoint loop allocates nothing.
func deleteNode(root *selNode, length interval.Num, id int64) (*selNode, *selNode) {
	if root == nil {
		return nil, nil
	}
	var removed *selNode
	switch c := cmpKey(length, id, root); {
	case c < 0:
		root.left, removed = deleteNode(root.left, length, id)
	case c > 0:
		root.right, removed = deleteNode(root.right, length, id)
	default:
		return mergeNodes(root.left, root.right), root
	}
	root.update()
	return root, removed
}

// mergeNodes joins two treaps where every key of l precedes every key of r.
func mergeNodes(l, r *selNode) *selNode {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.pri > r.pri {
		l.right = mergeNodes(l.right, r)
		l.update()
		return l
	}
	r.left = mergeNodes(l, r.left)
	r.update()
	return r
}

// maxNode returns the rightmost node: the class's longest interval (largest
// id among equals — irrelevant, only its length is read).
func maxNode(root *selNode) *selNode {
	for root.right != nil {
		root = root.right
	}
	return root
}

// minIDAtLeast returns the smallest tracked id among entries with length ≥
// minLen. In key order those entries form a suffix: a node below the bound
// sends the walk right; a node at or above it contributes itself and its
// whole right subtree (one augmented read) and sends the walk left.
func minIDAtLeast(root *selNode, minLen interval.Num) (int64, bool) {
	var best int64
	found := false
	take := func(id int64) {
		if !found || id < best {
			best, found = id, true
		}
	}
	for n := root; n != nil; {
		if n.t.idxLen.Cmp(minLen) < 0 {
			n = n.right
			continue
		}
		take(n.t.id)
		if n.right != nil {
			take(n.right.minID)
		}
		n = n.left
	}
	return best, found
}

// selIndex indexes the tracked intervals for the selection operator and
// keeps the INTERVALS length total incrementally (the farmer's Size and
// checkpoint totals never re-sum the table).
type selIndex struct {
	groups map[int64]*selNode // holder power → treap over (len, id)
	total  interval.Num       // Σ len of all indexed intervals
	// powerSum is Σ idxHP over all indexed intervals: the fleet power
	// currently attached to this table, maintained at the same three
	// mutation points as total. The multi-tenant fair-share rule reads it
	// per request (jobs.Table), so it must be O(1), not a table sweep.
	// Holder powers are clamped at MaxPower and the entry count is
	// bounded by tracked intervals, so the sum stays far from overflow.
	powerSum int64

	rng uint64 // deterministic treap priorities (splitmix64)

	// Scratch numbers: selection runs entirely on these, allocating
	// nothing per request, even on the spill path.
	scrLen, scrBest, scrCand, scrBound interval.Num
}

func newSelIndex() *selIndex {
	return &selIndex{
		groups: make(map[int64]*selNode),
		rng:    0x9e3779b97f4a7c15,
	}
}

// nextPri draws the next deterministic treap priority (splitmix64; the
// fixed seed keeps runs reproducible — the shape only affects speed, never
// decisions).
func (x *selIndex) nextPri() uint64 {
	x.rng += 0x9e3779b97f4a7c15
	z := x.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// setRoot writes a group's new root back, dropping the class when it
// drained.
func (x *selIndex) setRoot(hp int64, root *selNode) {
	if root == nil {
		delete(x.groups, hp)
		return
	}
	x.groups[hp] = root
}

// insert indexes a freshly tracked interval, caching its key (length,
// holder power) on the tracked entry itself so later removals and re-keys
// can find it whatever has mutated since.
func (x *selIndex) insert(t *tracked) {
	t.idxLen = t.iv.Width()
	t.idxHP = t.power
	x.setRoot(t.idxHP, insertNode(x.groups[t.idxHP], &selNode{t: t, pri: x.nextPri()}))
	x.total.Add(x.total, t.idxLen)
	x.powerSum += t.idxHP
}

// remove unindexes a retired interval.
func (x *selIndex) remove(t *tracked) {
	root, _ := deleteNode(x.groups[t.idxHP], t.idxLen, t.id)
	x.setRoot(t.idxHP, root)
	x.total.Sub(x.total, t.idxLen)
	x.powerSum -= t.idxHP
}

// fix re-keys t after any mutation that may have changed its length (the
// intersection operator, the partitioning operator) or its holder power
// (owner added, expired, re-admitted or re-weighted). Callers may batch
// several mutations under one fix: the node is located by the cached key,
// not the current state. No-ops when the key is unchanged, which keeps the
// steady-state update path at one O(log W) re-key for the length shrink.
func (x *selIndex) fix(t *tracked) {
	hp := t.power
	x.scrLen.SetWidth(t.iv)
	if hp == t.idxHP && x.scrLen.Cmp(t.idxLen) == 0 {
		return
	}
	root, n := deleteNode(x.groups[t.idxHP], t.idxLen, t.id)
	x.setRoot(t.idxHP, root)
	x.total.Sub(x.total, t.idxLen)
	x.powerSum += hp - t.idxHP
	t.idxLen.Set(x.scrLen)
	t.idxHP = hp
	if n == nil {
		// Defensive: a tracked entry that was never indexed (cannot
		// happen through the farmer's mutation points).
		n = &selNode{t: t}
	}
	n.pri = x.nextPri()
	x.setRoot(hp, insertNode(x.groups[hp], n))
	x.total.Add(x.total, t.idxLen)
}

// donatedInto computes the donated part a requester of power rp would
// receive from a holder class of power hp on a cached length, floor
// semantics and all — the partitioning operator's len([C,B)).
func donatedInto(dst *interval.Num, length interval.Num, hp, rp int64) *interval.Num {
	if hp <= 0 {
		return dst.Set(length)
	}
	if rp <= 0 {
		return dst.Set(interval.Num{})
	}
	return dst.MulQuo(length, rp, hp+rp)
}

// classWinner returns the smallest id in the class achieving donated d (the
// class maximum, computed from its longest entry).
func (x *selIndex) classWinner(root *selNode, hp, rp int64, d interval.Num) (int64, bool) {
	var minLen interval.Num
	switch {
	case hp <= 0:
		// donated == len exactly: achievers are the maximum-length run.
		minLen = d
	case rp <= 0:
		// Every entry donates 0: the whole class ties.
	default:
		// donated(len) == d ⇔ len·rp ≥ d·(hp+rp) ⇔ len ≥ ⌈d·(hp+rp)/rp⌉
		// (the upper end is free: d is the class maximum).
		minLen = *x.scrBound.MulQuoCeil(d, hp+rp, rp)
	}
	return minIDAtLeast(root, minLen)
}

// selectBest answers the selection operator for a requester of power rp:
// the id of the tracked interval with the greatest donated length, ties
// broken by smallest id — byte-identical to the seed linear scan. One
// donated evaluation and at most one augmented descent per holder-power
// class; the map iteration order is irrelevant because max-then-min-id is
// order-free.
func (x *selIndex) selectBest(rp int64) (int64, bool) {
	found := false
	var bestID int64
	for hp, root := range x.groups {
		d := donatedInto(&x.scrCand, maxNode(root).t.idxLen, hp, rp)
		c := 1
		if found {
			c = d.Cmp(x.scrBest)
		}
		if c < 0 {
			continue
		}
		id, ok := x.classWinner(root, hp, rp, *d)
		if !ok {
			continue
		}
		if c > 0 {
			x.scrBest.Set(*d)
			bestID = id
			found = true
		} else if id < bestID {
			bestID = id
		}
	}
	return bestID, found
}

// leaseEntry is one scheduled owner-expiry check. Entries are lazy: the
// owner may have reported since the push (re-push at its newer deadline) or
// been dropped, replaced, or retired with its interval (pointer identity
// mismatch — discard). No heap operation happens on the per-checkpoint
// message path; owners pay one push at admission and amortized one
// pop+push per lease period.
type leaseEntry struct {
	deadline int64
	t        *tracked
	w        transport.WorkerID
	o        *owner
}

func (e leaseEntry) before(o leaseEntry) bool { return e.deadline < o.deadline }

// leaseLive reports whether e still schedules anything: its interval is
// still tracked and still owned by the very owner the entry was pushed for.
func (f *Farmer) leaseLive(e leaseEntry) bool {
	t := f.intervals[e.t.id]
	return t == e.t && t.owners[e.w] == e.o
}

// lazyHeap is the min-heap under both of the farmer's lazy schedules (the
// lease heap here, the frontier heap in frontier.go): entries go stale in
// place and are only discarded when they surface at the top, which for a
// lease entry is a whole TTL after its interval retired — so left alone the
// heap, and everything its entries point at, grows with allocation rate ×
// TTL instead of table size. The one rule that bounds it: when the entries
// outnumber twice what the last compaction kept (plus lazyHeapSlack), the
// stale ones are filtered out in place and the rest re-heapified. That is
// amortised O(1) per push and changes no decision — a stale entry was
// going to be discarded unread, and any valid heap pops the same keys in
// the same order.
type lazyHeap[E interface{ before(E) bool }] struct {
	s     []E
	limit int // compact once len(s) passes it
}

// lazyHeapSlack keeps a small table from compacting on every few pushes.
const lazyHeapSlack = 64

func (h *lazyHeap[E]) push(e E) {
	h.s = append(h.s, e)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *lazyHeap[E]) pop() E {
	var zero E
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = zero // release the pointers
	h.s = s[:n]
	h.down(0)
	return top
}

func (h *lazyHeap[E]) down(i int) {
	s := h.s
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].before(s[m]) {
			m = l
		}
		if r < len(s) && s[r].before(s[m]) {
			m = r
		}
		if m == i {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// compactIfFull applies the bounding rule after a push of a new entry.
func (h *lazyHeap[E]) compactIfFull(live func(E) bool) {
	if len(h.s) <= h.limit {
		return
	}
	kept := h.s[:0]
	for _, e := range h.s {
		if live(e) {
			kept = append(kept, e)
		}
	}
	clear(h.s[len(kept):]) // release the pointers
	h.s = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.limit = 2*len(kept) + lazyHeapSlack
}

// pushLease schedules the owner's next possible expiry. A zero lease TTL
// disables the mechanism entirely, exactly like the seed sweep.
func (f *Farmer) pushLease(t *tracked, w transport.WorkerID, o *owner) {
	if f.leaseTTL <= 0 {
		return
	}
	deadline := o.lastSeen + f.leaseTTL
	if deadline < o.lastSeen { // saturate on overflow
		deadline = math.MaxInt64
	}
	f.lease.push(leaseEntry{deadline: deadline, t: t, w: w, o: o})
	f.lease.compactIfFull(f.leaseLive)
}

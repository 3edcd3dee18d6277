package farmer

import "repro/internal/interval"

// The frontier heap answers "what is the smallest beginning among all
// tracked intervals?" — the fold a sub-farmer reports upstream — in
// amortized O(log W) instead of an O(W) table scan per fold. It follows the
// lease heap's lazy discipline: one entry is pushed when an interval is
// tracked, staleness is resolved at read time, and lazyHeap's compaction
// rule (index.go) bounds what stale entries can pile up. An entry is stale
// when its interval was retired (discard) or when the interval's beginning
// has advanced past the recorded one (re-file at the current beginning; a
// beginning only ever advances, so the re-filed entry is correctly placed
// and the old position was a valid lower bound all along).

// frontierEntry is one scheduled frontier candidate. a is owned by the
// entry and re-used when the entry is re-filed.
type frontierEntry struct {
	a interval.Num
	t *tracked
}

func (e frontierEntry) before(o frontierEntry) bool { return e.a.Cmp(o.a) < 0 }

// frontierLive reports whether e's interval is still tracked. An entry
// whose beginning has merely advanced stays: its recorded position is
// still a valid lower bound, and the reader re-files it when it surfaces.
func (f *Farmer) frontierLive(e frontierEntry) bool {
	return f.intervals[e.t.id] == e.t && !e.t.iv.IsEmpty()
}

// pushFrontier files a freshly tracked interval in the frontier heap. A
// no-op unless frontier tracking is enabled: flat farmers never read the
// frontier, so they must not accumulate heap entries either.
func (f *Farmer) pushFrontier(t *tracked) {
	if !f.trackFront {
		return
	}
	f.front.push(frontierEntry{a: t.iv.Lo().Clone(), t: t})
	f.front.compactIfFull(f.frontierLive)
}

// frontierLocked resolves the heap top to the current minimum beginning and
// writes it into dst, discarding or re-filing stale entries on the way. It
// reports false when the table is empty (or tracking is off). Caller holds
// f.mu.
func (f *Farmer) frontierLocked(dst *interval.Num) bool {
	for len(f.front.s) > 0 {
		e := f.front.s[0]
		if !f.frontierLive(e) {
			f.front.pop()
			continue
		}
		if e.t.iv.Lo().Cmp(e.a) != 0 {
			// The beginning advanced since filing: re-file at the
			// current position (reusing the entry's storage).
			e = f.front.pop()
			e.a.Set(e.t.iv.Lo())
			f.front.push(e)
			continue
		}
		dst.Set(e.a)
		return true
	}
	return false
}

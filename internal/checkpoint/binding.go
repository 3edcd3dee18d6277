package checkpoint

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"strings"

	"repro/internal/interval"
)

// Binding is the upstream half of a sub-farmer's persistent state: which
// parent-side interval it holds and the bounds it last knew for it. It
// lives in a third file next to the paper's two — the two-file snapshot
// stays exactly the §4.1 INTERVALS/SOLUTION story at this tier, while the
// binding lets a restarted sub-farmer resume its parent session instead of
// presenting as a stranger (the parent then sees a lease blip, not a
// failure). A missing binding file simply means "not bound": the sub-farmer
// re-requests work from the parent and the parent's lease mechanism
// recovers whatever the previous incarnation held.
type Binding struct {
	// Bound reports whether an upstream interval is held at all.
	Bound bool
	// ID is the parent-side interval id (epoch-qualified by the parent).
	ID int64
	// Interval is the parent's copy as last learned from a reply.
	Interval interval.Interval
}

// bindingFile is the sub-farmer's upstream-session file.
const bindingFile = "upstream.ckpt"

// SaveBindings persists every held upstream binding durably (same footer,
// fsync and rotation discipline as the two snapshot files), one "bound"
// line per entry: a sub-farmer in a low-water episode holds more than one
// parent copy (DESIGN.md §12), and an empty list is the unbound state.
func (s *Store) SaveBindings(bs []Binding) error {
	var sb strings.Builder
	records := 0
	for _, b := range bs {
		if !b.Bound {
			continue
		}
		text, err := b.Interval.MarshalText()
		if err != nil {
			return fmt.Errorf("checkpoint: marshal binding interval: %w", err)
		}
		fmt.Fprintf(&sb, "bound %d %s\n", b.ID, text)
		records++
	}
	return s.writeSnapshotFile(bindingFile, "upstream", sb.String(), records)
}

// LoadBindings reads every persisted upstream binding, in file order (the
// primary binding first). ok is false when no binding file exists (a
// first start, or a store written by a flat farmer); an existing file
// with no bound lines returns ok with an empty slice.
//
// Unlike Load, a corrupt binding never fails the caller: losing a binding
// is a designed-for state (the parent's lease mechanism recovers the
// interval), so a corrupt current generation falls back to *.prev — a
// stale binding is safe, the parent rejects retired ids — and if every
// generation is corrupt the sub-farmer simply starts unbound. The corrupt
// files are quarantined and counted either way.
func (s *Store) LoadBindings() ([]Binding, bool, error) {
	var bs []Binding
	fromPrev, err := s.loadGeneration(bindingFile, "upstream", func(lines []string) error {
		parsed, err := parseBindingLines(lines)
		if err != nil {
			return err
		}
		bs = parsed
		return nil
	})
	switch {
	case err == nil:
		if fromPrev {
			s.stats.fallback.Add(1)
		}
		return bs, true, nil
	case errors.Is(err, iofs.ErrNotExist):
		return nil, false, nil
	default:
		// Corrupt beyond recovery: degrade to unbound.
		return nil, false, nil
	}
}

func parseBindingLines(lines []string) ([]Binding, error) {
	bs := []Binding{}
	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case "bound":
			if len(fields) != 4 {
				return nil, fmt.Errorf("checkpoint: bad bound line %q", line)
			}
			var b Binding
			if _, err := fmt.Sscanf(fields[1], "%d", &b.ID); err != nil {
				return nil, fmt.Errorf("checkpoint: bad binding id %q: %w", fields[1], err)
			}
			if err := b.Interval.UnmarshalText([]byte(fields[2] + " " + fields[3])); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			b.Bound = true
			bs = append(bs, b)
		default:
			return nil, fmt.Errorf("checkpoint: unknown record %q", fields[0])
		}
	}
	return bs, nil
}

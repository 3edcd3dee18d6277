package checkpoint

import (
	"testing"

	"repro/internal/interval"
)

// TestBindingRoundTrip: the sub-farmer's upstream binding survives the
// save/load cycle, bound and unbound alike, and its absence is a clean
// "not bound" rather than an error (first start).
func TestBindingRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := store.LoadBindings(); err != nil || ok {
		t.Fatalf("fresh store: ok=%v err=%v, want absent and nil", ok, err)
	}

	want := Binding{Bound: true, ID: 42<<40 | 7, Interval: interval.FromInt64(1000, 9999)}
	if err := store.SaveBindings([]Binding{want}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.LoadBindings()
	if err != nil || !ok || len(got) != 1 {
		t.Fatalf("got %d bindings, ok=%v err=%v", len(got), ok, err)
	}
	if !got[0].Bound || got[0].ID != want.ID || !got[0].Interval.Equal(want.Interval) {
		t.Fatalf("got %+v, want %+v", got[0], want)
	}

	// Unbinding persists too: a retired binding must not resurrect on
	// restart.
	if err := store.SaveBindings([]Binding{{}}); err != nil {
		t.Fatal(err)
	}
	got, ok, err = store.LoadBindings()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(got) != 0 {
		t.Fatalf("unbound save loaded as bound: %+v", got)
	}
}

package trace

import (
	"strings"
	"testing"
)

func TestBufferRecordsAndCounts(t *testing.T) {
	b := NewBuffer(10)
	b.Record(Event{Kind: KindNear, NodeA: 1, NodeB: 2, Hops: 2})
	b.Record(Event{Kind: KindFar, NodeA: 3, NodeB: 4, Hops: 12})
	b.Record(Event{Kind: KindFar, NodeA: 5, NodeB: 6, Hops: 9})
	if b.Total() != 3 {
		t.Fatalf("Total = %d", b.Total())
	}
	if b.Count(KindNear) != 1 || b.Count(KindFar) != 2 || b.Count(KindActivate) != 0 {
		t.Fatalf("counts: near=%d far=%d", b.Count(KindNear), b.Count(KindFar))
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("sequence numbers wrong: %v", evs)
	}
}

func TestBufferRingEviction(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 10; i++ {
		b.Record(Event{Kind: KindNear, NodeA: int32(i)})
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	// Chronological order with the oldest evicted.
	if evs[0].NodeA != 7 || evs[2].NodeA != 9 {
		t.Fatalf("ring order wrong: %v", evs)
	}
	if b.Total() != 10 || b.Count(KindNear) != 10 {
		t.Fatal("eviction must not lose the aggregate counts")
	}
}

func TestBufferDefaultCapacity(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 5000; i++ {
		b.Record(Event{Kind: KindNear})
	}
	if len(b.Events()) != 4096 {
		t.Fatalf("default cap retained %d", len(b.Events()))
	}
}

func TestBufferCountInvalidKind(t *testing.T) {
	b := NewBuffer(4)
	if b.Count(Kind(99)) != 0 || b.Count(Kind(0)) != 0 {
		t.Fatal("invalid kinds should count zero")
	}
}

func TestMulti(t *testing.T) {
	a := NewBuffer(4)
	b := NewBuffer(4)
	m := Multi(a, b)
	m.Record(Event{Kind: KindLoss})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatal("multi did not fan out")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNear:       "near",
		KindFar:        "far",
		KindActivate:   "activate",
		KindDeactivate: "deactivate",
		KindLoss:       "loss",
		KindLeafDone:   "leaf-done",
		Kind(42):       "kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Kind: KindFar, Square: 3, NodeA: 1, NodeB: 2, Hops: 9}
	s := e.String()
	for _, frag := range []string{"#7", "far", "square=3", "(1,2)", "hops=9"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("event string %q missing %q", s, frag)
		}
	}
}

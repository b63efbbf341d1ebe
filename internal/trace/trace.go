// Package trace provides structured event recording for protocol runs:
// which square exchanged with which, when rounds were activated, where
// packets were lost. Engines accept an optional Tracer; a nil tracer
// costs nothing.
package trace

import (
	"fmt"
	"sync"
)

// Kind classifies protocol events.
type Kind int

const (
	// KindNear is a single-hop (or orphan-routed) local exchange.
	KindNear Kind = iota + 1
	// KindFar is a long-range affine exchange between representatives.
	KindFar
	// KindActivate marks a square's round starting.
	KindActivate
	// KindDeactivate marks a square's round ending.
	KindDeactivate
	// KindLoss marks a lost data packet.
	KindLoss
	// KindLeafDone marks a completed leaf averaging call.
	KindLeafDone
	// KindReelect marks a representative re-election after the previous
	// representative died (NodeA is the successor, -1 for none).
	KindReelect
	// KindResync marks a revived node pulling current state from a live
	// neighbour (NodeA is the revived node, NodeB the donor).
	KindResync
	// KindChurn marks an observed liveness transition: NodeA is the node,
	// NodeB is 1 for a revival and 0 for a crash.
	KindChurn
	// KindRetransmit marks an ARQ retry: the transport resends a packet
	// whose previous attempt timed out. Hops is 0 — the retry's airtime is
	// charged by the exchange's own near/far/loss event, which carries the
	// full ARQ bill, so trace hop totals still sum to Transmissions.
	KindRetransmit
	// KindTimeout marks an ARQ ack timeout: an outstanding attempt was
	// lost and the sender's retry timer expired. Hops is 0 (see
	// KindRetransmit).
	KindTimeout

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNear:
		return "near"
	case KindFar:
		return "far"
	case KindActivate:
		return "activate"
	case KindDeactivate:
		return "deactivate"
	case KindLoss:
		return "loss"
	case KindLeafDone:
		return "leaf-done"
	case KindReelect:
		return "reelect"
	case KindResync:
		return "resync"
	case KindChurn:
		return "churn"
	case KindRetransmit:
		return "retransmit"
	case KindTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one protocol occurrence.
type Event struct {
	// Seq is the global event sequence number, assigned by the tracer.
	Seq uint64
	// Kind classifies the event.
	Kind Kind
	// Square is the acting square's ID (-1 when not applicable).
	Square int
	// NodeA and NodeB are the participating nodes (-1 when not
	// applicable).
	NodeA, NodeB int32
	// Hops is the transmission cost of the event.
	Hops int
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s square=%d nodes=(%d,%d) hops=%d",
		e.Seq, e.Kind, e.Square, e.NodeA, e.NodeB, e.Hops)
}

// Tracer receives protocol events. Implementations must be safe for use
// from a single goroutine (engines are single-threaded); Buffer is
// additionally safe for concurrent reads after the run.
type Tracer interface {
	Record(Event)
}

// Buffer is a bounded ring-buffer tracer that keeps the most recent
// events and per-kind counts for the whole run.
type Buffer struct {
	mu     sync.Mutex
	cap    int
	events []Event
	start  int
	seq    uint64
	counts [numKinds]uint64
}

// NewBuffer returns a buffer keeping the most recent capacity events
// (capacity <= 0 selects 4096).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{cap: capacity}
}

// Record implements Tracer.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	e.Seq = b.seq
	if e.Kind > 0 && e.Kind < numKinds {
		b.counts[e.Kind]++
	}
	if len(b.events) < b.cap {
		b.events = append(b.events, e)
		return
	}
	b.events[b.start] = e
	b.start = (b.start + 1) % b.cap
}

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, len(b.events))
	for i := 0; i < len(b.events); i++ {
		out = append(out, b.events[(b.start+i)%len(b.events)])
	}
	return out
}

// Total returns the number of events recorded over the whole run
// (including evicted ones).
func (b *Buffer) Total() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Count returns how many events of the given kind were recorded over the
// whole run.
func (b *Buffer) Count(k Kind) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k <= 0 || k >= numKinds {
		return 0
	}
	return b.counts[k]
}

var _ Tracer = (*Buffer)(nil)

// Multi fans events out to several tracers.
func Multi(tracers ...Tracer) Tracer {
	return multiTracer(tracers)
}

type multiTracer []Tracer

func (m multiTracer) Record(e Event) {
	for _, t := range m {
		t.Record(e)
	}
}

package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// batchModeRun drives a fixed packet stream over an impaired link and
// returns the arrival trace plus fault stats. With batched on, the
// scheduler runs through batched dispatch, which drains parked ring
// arrivals inline; otherwise it runs event-at-a-time under Step, where
// nothing is inlined and every parked arrival re-arms the link timer.
// The stream deliberately mixes back-to-back sends (which share a ring
// and a single armed timer) with reordering, so out-of-order ring
// appends take the fallback path too.
func batchModeRun(batched bool, seed int64) (string, LinkStats, *Network) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(seed))
	a, b := net.AddNode("a"), net.AddNode("b")
	l, _ := net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
	l.SetImpairments(0.1, 0.15, 0.3, 20*sim.Millisecond)
	c := &collector{sch: sch}
	net.Bind(Addr{b, 1}, c)
	for i := 0; i < 300; i++ {
		at := sim.Time(i/3) * sim.Millisecond // three same-instant sends per step
		sch.At(at, func() {
			net.Send(&Packet{Size: 500, Src: Addr{a, 1}, Dst: Addr{b, 1}})
		})
	}
	if batched {
		sch.Run()
	} else {
		for sch.Step() {
		}
	}
	trace := ""
	for _, at := range c.at {
		trace += fmt.Sprintf("%d\n", at)
	}
	return trace, l.Stats, net
}

// TestImpairedDeliveryBatchIdentity: with corruption, duplication and
// reordering all active, batched dispatch with inline ring drains must
// reproduce the event-at-a-time delivery order and fault draws byte for
// byte.
func TestImpairedDeliveryBatchIdentity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		on, onStats, net := batchModeRun(true, seed)
		off, offStats, _ := batchModeRun(false, seed)
		if on != off {
			t.Fatalf("seed %d: delivery trace differs between batched and Step dispatch", seed)
		}
		if onStats != offStats {
			t.Fatalf("seed %d: link stats differ: %+v vs %+v", seed, onStats, offStats)
		}
		if onStats.Corrupted == 0 || onStats.Duplicated == 0 || onStats.Reordered == 0 {
			t.Fatalf("seed %d: impairment modules never fired: %+v", seed, onStats)
		}
		if held := net.RingHeld(); held != 0 {
			t.Fatalf("seed %d: %d packets still held in link rings after drain", seed, held)
		}
		if live := net.LivePackets(); live != 0 {
			t.Fatalf("seed %d: pool conservation broken: %d packets live", seed, live)
		}
	}
}

// TestBatchRingSurvivesReset: rings must be cleared by Reset so a
// rewound arena cannot deliver a stale packet from the previous run.
func TestBatchRingSurvivesReset(t *testing.T) {
	sch := sim.NewScheduler()
	net := New(sch, sim.NewRand(3))
	net.EnableReuse()
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddDuplex(a, b, 1e6, 5*sim.Millisecond, 50)
	delivered := 0
	net.Bind(Addr{b, 1}, HandlerFunc(func(*Packet) { delivered++ }))
	// Two back-to-back sends: the first arrival rides the armed timer
	// directly, the second parks in the ring behind it.
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	net.Send(&Packet{Size: 100, Src: Addr{a, 1}, Dst: Addr{b, 1}})
	sch.RunUntil(sim.Millisecond) // packets are in flight, ring non-empty
	if net.RingHeld() == 0 {
		t.Fatal("setup: expected an in-flight ring entry")
	}
	sch.Reset()
	if !net.Reset() {
		t.Fatal("Reset refused on a reusable network")
	}
	if net.RingHeld() != 0 {
		t.Fatalf("Reset left %d ring entries", net.RingHeld())
	}
	sch.Run()
	if delivered != 0 {
		t.Fatalf("stale ring entry delivered %d packets after Reset", delivered)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("Reset leaked %d live packets", net.LivePackets())
	}
}

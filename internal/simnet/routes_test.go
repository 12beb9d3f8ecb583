package simnet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// rowsComputed counts the route rows currently valid.
func rowsComputed(n *Network) int {
	c := 0
	for _, ok := range n.rowOK {
		if ok {
			c++
		}
	}
	return c
}

// TestStarComputesFewRows checks that multicast to a 1,000-leaf star
// computes only the rows its tree walk passes through — not a V×V table —
// and that a leaf's first unicast adds just that leaf's row.
func TestStarComputesFewRows(t *testing.T) {
	sch, net := newNet()
	src := net.AddNode("src")
	hub := net.AddNode("hub")
	net.AddDuplex(src, hub, 0, sim.Millisecond, 0)
	leaves := make([]NodeID, 1000)
	got := 0
	for i := range leaves {
		leaves[i] = net.AddNode(fmt.Sprint("leaf", i))
		net.AddDuplex(hub, leaves[i], 0, sim.Millisecond, 0)
		net.Join(1, leaves[i])
		net.Bind(Addr{leaves[i], 1}, HandlerFunc(func(*Packet) { got++ }))
	}
	net.Send(&Packet{Size: 100, Src: Addr{src, 1}, Group: 1, IsMcast: true, Dst: Addr{Port: 1}})
	sch.Run()
	if got != len(leaves) {
		t.Fatalf("multicast reached %d of %d leaves", got, len(leaves))
	}
	if r := rowsComputed(net); r > 3 {
		t.Fatalf("multicast computed %d route rows, want at most 3", r)
	}
	allocated := 0
	for _, row := range net.routes {
		if row != nil {
			allocated++
		}
	}
	if allocated != rowsComputed(net) {
		t.Fatalf("%d rows allocated for %d computed", allocated, rowsComputed(net))
	}

	before := rowsComputed(net)
	back := 0
	net.Bind(Addr{src, 2}, HandlerFunc(func(*Packet) { back++ }))
	net.Send(&Packet{Size: 100, Src: Addr{leaves[7], 2}, Dst: Addr{src, 2}})
	sch.Run()
	if back != 1 {
		t.Fatal("unicast from a leaf was not delivered")
	}
	if r := rowsComputed(net); r > before+1 {
		t.Fatalf("one leaf's unicast computed %d new rows, want at most 1", r-before)
	}
}

// eagerRoutes is the all-pairs first-hop table the network used to build
// eagerly: a linear-scan Dijkstra from every node, settling the lowest
// (distance, node) first and relaxing each node's links in destination
// order, then walking predecessors back to the source and looking the
// first hop up by its endpoints.
func eagerRoutes(n *Network) [][]int32 {
	cnt := len(n.nodes)
	out := make([][]int32, cnt)
	for src := range cnt {
		const inf = int64(1) << 62
		dist := make([]int64, cnt)
		prev := make([]NodeID, cnt)
		done := make([]bool, cnt)
		for i := range dist {
			dist[i], prev[i] = inf, -1
		}
		dist[src] = 0
		for {
			u := -1
			for v := range cnt {
				if !done[v] && dist[v] < inf && (u < 0 || dist[v] < dist[u]) {
					u = v
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			var out []*Link
			for _, l := range n.linkList {
				if l.From == NodeID(u) && !l.down {
					out = append(out, l)
				}
			}
			slices.SortFunc(out, func(a, b *Link) int { return int(a.To) - int(b.To) })
			for _, l := range out {
				if nd := dist[u] + int64(l.Delay) + 1; nd < dist[l.To] {
					dist[l.To], prev[l.To] = nd, NodeID(u)
				}
			}
		}
		row := make([]int32, cnt)
		for d := range cnt {
			row[d] = -1
			if d == src || prev[d] < 0 {
				continue
			}
			hop := NodeID(d)
			for prev[hop] != NodeID(src) {
				hop = prev[hop]
			}
			row[d] = n.linkIdx[linkKey{NodeID(src), hop}]
		}
		out[src] = row
	}
	return out
}

// TestOnDemandRoutesMatchEager compares every on-demand row with the
// eager all-pairs table on random meshes whose delays are drawn from a
// tiny set, so equal-cost paths abound, before and after links go down
// and delays change at runtime.
func TestOnDemandRoutesMatchEager(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := sim.NewRand(seed)
		_, net := newNet()
		nodes := 6 + rng.Intn(20)
		for i := range nodes {
			net.AddNode(fmt.Sprint("n", i))
		}
		var links []*Link
		for range nodes * 2 {
			a, b := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
			if a == b || net.LinkBetween(a, b) != nil {
				continue
			}
			ab, ba := net.AddDuplex(a, b, 0, sim.Time(rng.Intn(3))*sim.Millisecond, 0)
			links = append(links, ab, ba)
		}
		check := func(stage string) {
			t.Helper()
			want := eagerRoutes(net)
			// Visit rows in a seed-dependent order: a row computed on
			// demand must not depend on which rows came before it.
			for _, s := range rng.Perm(nodes) {
				if got := net.route(NodeID(s)); !slices.Equal(got, want[s]) {
					t.Fatalf("seed %d %s: row %d = %v, eager %v", seed, stage, s, got, want[s])
				}
			}
		}
		// Compute a few rows, then mutate: every row must be refreshed.
		net.route(0)
		check("initial")
		for range 3 {
			if len(links) > 0 {
				links[rng.Intn(len(links))].SetDown(true)
			}
		}
		check("links down")
		for range 3 {
			if len(links) > 0 {
				links[rng.Intn(len(links))].SetDelay(sim.Time(rng.Intn(3)) * sim.Millisecond)
			}
		}
		check("delays changed")
		for _, l := range links {
			l.SetDown(false)
		}
		check("links up")
	}
}

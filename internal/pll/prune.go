package pll

import (
	"hublab/internal/graph"
	"hublab/internal/hub"
)

// This file holds the pruning and parent logic shared by the sequential
// builders (pll.go) and the batched parallel engine (parallel.go). Both
// paths MUST go through these helpers: the parallel build's byte-equality
// guarantee rests on every path applying the exact same prune predicate
// and the exact same (order-canonical, traversal-independent) parent
// choice.

// certified reports whether the labels of a visited vertex, intersected
// with the current root's label (rootDist maps hub id → distance from the
// root, Infinity when absent), already certify a root distance ≤ du. This
// is the PLL prune predicate: when it holds the vertex gains no entry for
// this root and its search subtree is cut off.
//
// The test needs no "hub present" guard, because the sentinel arithmetic
// already makes an absent hub fail it. graph.Builder rejects every edge
// weight ≥ Infinity, and relaxation accepts only nd < dist[v] ≤ Infinity,
// so every label distance and every du is below Infinity (2^29). An absent
// hub reads rd = Infinity, and Infinity+h.Dist > du; a present one sums to
// below 2^30. No sum can wrap int32. Skipping the guard removes a
// data-dependent branch from the build's innermost loop.
//
// Most calls fail and scan the whole label, so the loop takes four entries
// per step and tests their minimum (compiled to conditional moves): one
// branch per four independent loads. The answer is the same boolean.
func certified(label []hub.Hub, rootDist []graph.Weight, du graph.Weight) bool {
	i := 0
	for ; i+4 <= len(label); i += 4 {
		h := label[i : i+4 : i+4]
		a := rootDist[h[0].Node] + h[0].Dist
		b := rootDist[h[1].Node] + h[1].Dist
		c := rootDist[h[2].Node] + h[2].Dist
		d := rootDist[h[3].Node] + h[3].Dist
		if min(a, b, c, d) <= du {
			return true
		}
	}
	for _, h := range label[i:] {
		if rootDist[h.Node]+h.Dist <= du {
			return true
		}
	}
	return false
}

// canonicalPred returns the order-canonical parent (next hop toward the
// current root) of a labeled vertex v at distance dv: among the neighbors
// u that lie on a shortest root–v path (dist[u]+w(u,v) == dv) and were
// themselves labeled by this root (stamp[u] == cur), prefer those that
// make strict distance progress, then take the minimum id. The choice
// depends only on the graph and the set of labeled vertices — never on
// traversal order — which is what lets the parallel builder reproduce the
// sequential parent column bit for bit.
//
// Such a neighbor always exists: the last edge of any shortest root–v
// path ends at a vertex that is itself on a shortest path, and every
// vertex on a shortest path to a labeled vertex is labeled (pruning it
// would prune v too). Only a zero-weight last edge can force the
// non-strict fallback, matching the documented hub.ErrPathUnpack
// limitation for zero-weight graphs.
func canonicalPred(g *graph.Graph, v graph.NodeID, dv graph.Weight, dist []graph.Weight, stamp []int32, cur int32) graph.NodeID {
	best := graph.NodeID(-1)
	bestStrict := false
	ws := g.NeighborWeights(v)
	for i, u := range g.Neighbors(v) {
		if stamp[u] != cur {
			continue
		}
		w := graph.Weight(1)
		if ws != nil {
			w = ws[i]
		}
		if dist[u]+w != dv {
			continue
		}
		strict := dist[u] < dv
		if best < 0 || (strict && !bestStrict) || (strict == bestStrict && u < best) {
			best, bestStrict = u, strict
		}
	}
	return best
}

// appendCanonicalPreds appends one parent per vertex the current root just
// labeled, in `labeled` order: -1 for the root's self entry, the canonical
// predecessor otherwise. dist must hold the true root distance of every
// labeled vertex and stamp[v] == cur exactly for the labeled set — both
// builders maintain this invariant at the point of call.
func appendCanonicalPreds(g *graph.Graph, root graph.NodeID, labeled []graph.NodeID, dist []graph.Weight, stamp []int32, cur int32, parents [][]graph.NodeID) {
	for _, v := range labeled {
		if v == root {
			parents[v] = append(parents[v], -1)
			continue
		}
		parents[v] = append(parents[v], canonicalPred(g, v, dist[v], dist, stamp, cur))
	}
}

package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"hublab/internal/graph"
)

// query is one generated request. Its pair is a reference source and an
// arbitrary vertex, in either orientation, so its answer is known.
type query struct {
	flip bool
	src  int32
	t    graph.NodeID
}

func (q query) pair(ref *reference) (graph.NodeID, graph.NodeID) {
	s := ref.sources[q.src]
	if q.flip {
		return q.t, s
	}
	return s, q.t
}

func (q query) want(ref *reference) graph.Weight { return ref.dist[q.src][q.t] }

// traffic draws a workload's distance requests by its pair law; the
// ledger also draws uniform pairs for witness paths.
type traffic struct {
	w    *workload
	ref  *reference
	n    int
	pool []query   // the Zipf pair pool, hottest first
	cum  []float64 // cumulative Zipf weights over pool
}

func newTraffic(w *workload, ref *reference, n int, rng *rand.Rand) *traffic {
	tf := &traffic{w: w, ref: ref, n: n}
	if w.Dist == "zipf" {
		tf.pool = make([]query, w.ZipfPool)
		tf.cum = make([]float64, w.ZipfPool)
		total := 0.0
		for r := range tf.pool {
			tf.pool[r] = tf.uniform(rng)
			total += math.Pow(float64(r+1), -w.ZipfAlpha)
			tf.cum[r] = total
		}
	}
	return tf
}

func (tf *traffic) uniform(rng *rand.Rand) query {
	return query{
		src:  int32(rng.Intn(len(tf.ref.sources))),
		t:    graph.NodeID(rng.Intn(tf.n)),
		flip: rng.Intn(2) == 1,
	}
}

// dist draws one distance pair. The Zipf law picks pool rank r with
// probability ∝ (r+1)^-alpha by inverse-CDF search, as E25 does.
func (tf *traffic) dist(rng *rand.Rand) query {
	if tf.pool == nil {
		return tf.uniform(rng)
	}
	x := rng.Float64() * tf.cum[len(tf.cum)-1]
	r := sort.SearchFloat64s(tf.cum, x)
	if r >= len(tf.pool) {
		r = len(tf.pool) - 1
	}
	return tf.pool[r]
}

// schedule draws an open-loop arrival schedule: Poisson arrivals at
// rate per second for dur, each with its distance request.
func (tf *traffic) schedule(rate float64, dur time.Duration, rng *rand.Rand) ([]query, []time.Duration) {
	n := int(rate*dur.Seconds()*1.1) + 16
	qs := make([]query, 0, n)
	at := make([]time.Duration, 0, n)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return qs, at
		}
		qs = append(qs, tf.dist(rng))
		at = append(at, d)
	}
}

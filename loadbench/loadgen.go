package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hublab/internal/graph"
	"hublab/internal/hubclient"
	"hublab/internal/wire"
)

// The pacer's timer fires a little before each due time and the sender
// busy-waits the rest, so the timer's own wake-up delay (about 20 µs)
// is not charged to every request: wakeEarly at most, and never more
// than 1/8 of the gap to the previous request, so that at high rates
// the spin takes a small share of a core.
const wakeEarly = 30 * time.Microsecond

// clientTimeout is the hubclient's per-request deadline (its default).
// A request that gets no answer is charged this latency, so a failure
// always misses the latency limit and every percentile stays finite.
const clientTimeout = 2 * time.Second

// passOpts selects what a pass drives.
type passOpts struct {
	// sink answers every request with a no-op instead of the stack: the
	// generator's own floor.
	sink bool
	// span, when non-zero, records one request span per call under this
	// parent.
	span int
}

// passResult is one open-loop load point.
type passResult struct {
	rate      float64
	dur       time.Duration
	sink      bool
	attempted int
	failed    int
	wrong     int
	// lat holds the distance latencies (ns, from each request's due
	// time) of each time window; wsteal is the hypervisor's share of CPU
	// time in each window and steal over the whole pass (windows.go).
	lat    [][]int64
	wsteal []float64
	steal  float64
	// lateP50 and lateP99 say how late the pacer sent (ns).
	lateP50, lateP99 int64
	drain            time.Duration
	goodput          float64
	errs             map[string]int
}

// pass drives one open-loop schedule of distance requests through the
// stack: a single goroutine sends each request at its due time (never
// waiting for earlier replies) and each reply's latency is timed from
// that due time, so a stall is charged to every request queued behind
// it.
func (r *runner) pass(qs []query, at []time.Duration, dur time.Duration, o passOpts) (passResult, error) {
	res := passResult{dur: dur, sink: o.sink, attempted: len(qs), rate: float64(len(qs)) / dur.Seconds(), errs: map[string]int{}}
	lat := make([]int64, len(qs))
	answered := make([]bool, len(qs))
	late := make([]int64, len(qs))
	var spanStart, spanEnd []int64
	if o.span != 0 {
		spanStart = make([]int64, len(qs))
		spanEnd = make([]int64, len(qs))
	}
	var wrong atomic.Int64
	var mu sync.Mutex
	fail := func(err error) {
		key := errKey(err)
		mu.Lock()
		res.errs[key]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	start := time.Now()
	originOffset := r.tr.now()
	stopSteal := make(chan struct{})
	steal := make(chan []stealSample, 1)
	go sampleSteal(start, stopSteal, steal)
	fire := func(i int) {
		defer wg.Done()
		q := qs[i]
		u, v := q.pair(r.ref)
		t0 := time.Since(start)
		var err error
		var d graph.Weight
		if !o.sink {
			d, err = r.s.client.Distance(u, v)
		}
		t1 := time.Since(start)
		if spanStart != nil {
			spanStart[i], spanEnd[i] = originOffset+int64(t0), originOffset+int64(t1)
		}
		if err != nil {
			lat[i] = int64(clientTimeout)
			fail(err)
			return
		}
		lat[i] = int64(t1 - at[i])
		answered[i] = true
		if !o.sink && d != q.want(r.ref) {
			wrong.Add(1)
		}
	}
	pc, err := newPacer()
	if err != nil {
		close(stopSteal)
		<-steal
		return res, err
	}
	for i := range qs {
		early := wakeEarly
		if i > 0 {
			early = min(early, (at[i]-at[i-1])/8)
		}
		if d := at[i] - time.Since(start) - early; d > 0 {
			if err := pc.sleep(d); err != nil {
				pc.close()
				wg.Wait()
				close(stopSteal)
				<-steal
				return res, fmt.Errorf("pacer: %w", err)
			}
		}
		for time.Since(start) < at[i] {
		}
		late[i] = int64(time.Since(start) - at[i])
		wg.Add(1)
		go fire(i)
	}
	pc.close()
	wg.Wait()
	close(stopSteal)
	res.cutWindows(lat, at, <-steal)

	var last int64
	ok := 0
	for i, l := range lat {
		if !answered[i] {
			res.failed++
		} else {
			ok++
			if end := int64(at[i]) + l; end > last {
				last = end
			}
		}
	}
	if d := time.Duration(last) - dur; d > 0 {
		res.drain = d
	}
	res.goodput = float64(ok) / dur.Seconds()
	res.wrong = int(wrong.Load())
	res.lateP50 = percentile(late, 0.5)
	res.lateP99 = percentile(late, 0.99)
	for i := range spanStart {
		r.tr.add("hubclient.distance", o.span, spanStart[i], spanEnd[i])
	}
	if res.wrong > 0 {
		return res, fmt.Errorf("%d wrong answers at %.0f q/s", res.wrong, res.rate)
	}
	return res, nil
}

func errKey(err error) string {
	switch {
	case errors.Is(err, hubclient.ErrPoolExhausted):
		return "pool_exhausted"
	case errors.Is(err, hubclient.ErrDeadline):
		return "client_deadline"
	case errors.Is(err, wire.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, wire.ErrTimeout):
		return "server_timeout"
	default:
		return err.Error()
	}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// sorting xs in place.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

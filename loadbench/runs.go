package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Shares of --seconds: the warm-up point, each fixed-rate point (run as
// fixedSegments alternating segments per point) and each capacity
// probe.
const (
	warmupShare   = 0.05
	fixedShare    = 0.3
	fixedSegments = 8
	probeShare    = 1.0 / 20
)

func (r *runner) secs(frac float64) time.Duration {
	return time.Duration(frac * r.seconds * float64(time.Second))
}

// endToEnd is the untraced run: repeated set-up, a light and a heavy
// load point, and the capacity search.
func (r *runner) endToEnd(dir string) error {
	var setups []float64
	for k := 0; k < r.w.Setups; k++ {
		s, t, err := setUp(r.w, r.seed, dir, r.tr, 0)
		if err != nil {
			return err
		}
		setups = append(setups, t.total.Seconds())
		fmt.Fprintf(r.log, "  setup %d: %v (graph %v, order %v, build %v, write %v, open %v, start %v, first query %v)\n",
			k+1, t.total.Round(time.Millisecond), t.graph.Round(time.Microsecond), t.order.Round(time.Microsecond),
			t.build.Round(time.Millisecond), t.write.Round(time.Millisecond), t.open.Round(time.Microsecond),
			t.start.Round(time.Microsecond), t.first.Round(time.Microsecond))
		if k < r.w.Setups-1 {
			if err := s.close(); err != nil {
				return err
			}
			runtime.GC()
			continue
		}
		r.s = s
	}
	r.clientCalls = 1 // the set-up's first query
	// rss_mb is the serving process's peak: building the labeling is
	// hubgen's work in a deployment, so the peak is reset once set-up is
	// done and its garbage is returned. The reference answers and the
	// traffic model are the benchmark's own; the resident memory they
	// add is measured and taken off the peak.
	before, err := settledRSS()
	if err != nil {
		return err
	}
	r.prepare()
	after, err := settledRSS()
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if _, err := r.point("warmup", r.w.LightQPS, r.secs(warmupShare), passOpts{}); err != nil {
		return err
	}
	light, heavy, err := r.fixedPoints()
	if err != nil {
		return err
	}
	// Peak RSS through the fixed-rate points; the capacity search
	// overloads the process on purpose and is left out.
	peak, err := statusMB("VmHWM")
	if err != nil {
		return err
	}
	maxRate, err := r.capacity(r.secs(probeShare))
	if err != nil {
		return err
	}
	bytes := r.s.bytes
	if err := r.shutdown(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "  rss: peak %.1f MB, of which the reference answers and traffic model %.1f MB\n", peak, after-before)
	r.put("setup_s", median(setups), "s")
	r.put("index_bytes", float64(bytes), "bytes")
	r.put("rss_mb", peak-(after-before), "MB")
	r.put("dist_p50_us.light", us(light.quantile(0.5)), "us")
	r.put("dist_p50_us.heavy", us(heavy.quantile(0.5)), "us")
	r.put("max_rate_qps", maxRate, "1/s")
	r.put("answered_frac", 1-float64(r.failed)/float64(r.attempted), "fraction")
	return nil
}

// settledRSS returns the resident set once the garbage collector has
// run and returned free memory to the kernel.
func settledRSS() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	return statusMB("VmRSS")
}

// fixedPoints drives the light and heavy points, each fixedShare of the
// run, as alternating segments: a host storm of a few seconds then
// takes windows from both points instead of all of one. A point left
// with fewer than half its windows clean gets one more segment. Every
// segment counts as attempted.
func (r *runner) fixedPoints() (light, heavy passResult, err error) {
	const extra = 1
	seg := r.secs(fixedShare / fixedSegments)
	var parts [2][]passResult
	rates := [2]float64{r.w.LightQPS, r.w.HeavyQPS}
	labels := [2]string{"light", "heavy"}
	run := func(j int) error {
		res, err := r.point(fmt.Sprintf("%s.%d", labels[j], len(parts[j])), rates[j], seg, passOpts{})
		if err != nil {
			return err
		}
		r.attempted += res.attempted
		r.failed += res.failed
		parts[j] = append(parts[j], res)
		return nil
	}
	for i := 0; i < fixedSegments; i++ {
		for j := range parts {
			if err := run(j); err != nil {
				return light, heavy, err
			}
		}
	}
	for j := range parts {
		for k := 0; k < extra; k++ {
			if m := merge(parts[j]); m.cleanWindows()*2 >= len(m.lat) {
				break
			}
			if err := run(j); err != nil {
				return light, heavy, err
			}
		}
	}
	return merge(parts[0]), merge(parts[1]), nil
}

// probePoint is one capacity probe: the offered rate and the distance
// p90 (ns) over the probe's clean windows, failures included.
type probePoint struct{ rate, p90 float64 }

// Capacity search constants. The search widens by searchStep until one
// probe meets the limit and one misses it. Near the limit the p90 grows
// as about the p90Slope-th power of the offered rate: pairs of probes
// on either side of the 500 µs limit read 3.2–4.2 on both workloads on
// the 2-vCPU VM this benchmark was tuned on. A probe's p90 within
// estimateBand of the limit, either way, gives an estimate of the
// crossing.
const (
	searchStep   = 1.25
	p90Slope     = 3.5
	estimateBand = 2.0
)

// capacity estimates the offered rate at which the distance p90 reaches
// the workload's limit. It widens from StartQPS by searchStep until one
// probe meets the limit and one misses it, then places every further
// probe at the current estimate. Each probe whose p90 is within
// estimateBand of the limit estimates the crossing as rate ·
// (limit/p90)^(1/p90Slope), and the result is the median of those
// estimates, so every probe counts and a probe the host stalled moves
// the result little. A growing backlog shows in the p90: the requests
// still queued when a probe's schedule ends are charged their whole
// wait. A probe with a third or more of its windows lost to steal is
// replaced, up to maxRepeats such probes a search, and then counts.
func (r *runner) capacity(probe time.Duration) (float64, error) {
	const maxRepeats = 8
	c := r.w.Search
	limit := r.w.P90LimitUS * float64(time.Microsecond)
	var pts []probePoint
	repeats := 0
	rate := c.StartQPS
	for len(pts) < c.Probes {
		if err := r.settle(); err != nil {
			return 0, err
		}
		res, err := r.point(fmt.Sprintf("probe%02d", len(pts)+1), rate, probe, passOpts{})
		if err != nil {
			return 0, err
		}
		if res.stormy() && repeats < maxRepeats {
			repeats++
			continue
		}
		pts = append(pts, probePoint{rate, float64(res.quantile(0.9))})
		rate = crossing(pts, limit, c)
	}
	est := crossing(pts, limit, c)
	fmt.Fprintf(r.log, "  capacity: p90 reaches %vus at %.0f/s\n", r.w.P90LimitUS, est)
	return est, nil
}

// crossing estimates the rate at which the p90 reaches limit from the
// probes so far, within the search range. Until one probe has met the
// limit and one has missed it, it returns the rate one searchStep
// beyond the probes, which is where the next probe goes.
func crossing(pts []probePoint, limit float64, c search) float64 {
	// pass is the fastest probe that met the limit, fail the slowest
	// that missed it.
	lo, hi := math.Inf(1), 0.0
	pass, fail := 0.0, math.Inf(1)
	var ests []float64
	for _, p := range pts {
		lo, hi = min(lo, p.rate), max(hi, p.rate)
		if p.p90 <= limit {
			pass = max(pass, p.rate)
		} else {
			fail = min(fail, p.rate)
		}
		if p.p90 >= limit/estimateBand && p.p90 <= limit*estimateBand {
			ests = append(ests, p.rate*math.Pow(limit/p.p90, 1/p90Slope))
		}
	}
	switch {
	case pass == 0:
		return max(c.FromQPS, lo/searchStep)
	case math.IsInf(fail, 1):
		return min(c.ToQPS, hi*searchStep)
	case len(ests) == 0:
		// Every probe is far from the limit on one side or the other.
		return math.Sqrt(pass * fail)
	}
	return min(max(median(ests), c.FromQPS), c.ToQPS)
}

// traced is the per-layer run: one traced set-up, the closed-loop
// ledger through each layer's entry point, the generator's floor
// against a no-op sink, and light and heavy open-loop passes with a
// span around every hubclient call.
func (r *runner) traced(dir string) error {
	root := r.tr.open("run", 0)
	defer r.tr.finish(root)
	s, t, err := setUp(r.w, r.seed, dir, r.tr, root)
	if err != nil {
		return err
	}
	r.s = s
	r.clientCalls = 1
	r.put("gen.graph_ms", ms(t.graph), "ms")
	r.put("pll.order_ms", ms(t.order), "ms")
	r.put("pll.build_ms", ms(t.build), "ms")
	r.put("hub.write_ms", ms(t.write), "ms")
	r.put("pll.hubs_per_vertex", s.labels.Avg, "hubs")
	r.put("pll.hubs_max", float64(s.labels.Max), "hubs")
	r.prepare()
	if err := r.ledger(root); err != nil {
		r.s.close()
		return err
	}
	if err := r.tracedLoad(root); err != nil {
		r.s.close()
		return err
	}
	return r.shutdown()
}

func (r *runner) tracedLoad(root int) error {
	if _, err := r.point("warmup", r.w.LightQPS, r.secs(warmupShare), passOpts{}); err != nil {
		return err
	}
	sinkLight, err := r.point("sink-light", r.w.LightQPS, r.secs(0.1), passOpts{sink: true})
	if err != nil {
		return err
	}
	sinkHeavy, err := r.point("sink-heavy", r.w.HeavyQPS, r.secs(0.1), passOpts{sink: true})
	if err != nil {
		return err
	}
	plain, err := r.point("light", r.w.LightQPS, r.secs(0.2), passOpts{})
	if err != nil {
		return err
	}
	sp := r.tr.open("load.light", root)
	traced, err := r.point("light-traced", r.w.LightQPS, r.secs(0.2), passOpts{span: sp})
	r.tr.finish(sp)
	if err != nil {
		return err
	}
	st0, ds0, cs0 := r.s.srv.Stats(), r.s.door.Stats(), r.s.client.Stats()
	sp = r.tr.open("load.heavy", root)
	heavy, err := r.point("heavy-traced", r.w.HeavyQPS, r.secs(0.3), passOpts{span: sp})
	r.tr.finish(sp)
	if err != nil {
		return err
	}
	st1, ds1, cs1 := r.s.srv.Stats(), r.s.door.Stats(), r.s.client.Stats()
	r.attempted = plain.attempted + traced.attempted + heavy.attempted
	r.failed = plain.failed + traced.failed + heavy.failed

	r.put("tail.dist_p90_us.light", us(plain.quantile(0.9)), "us")
	r.put("tail.dist_p99_us.light", us(plain.quantile(0.99)), "us")
	r.put("tail.dist_p90_us.heavy", us(heavy.quantile(0.9)), "us")
	r.put("tail.dist_p99_us.heavy", us(heavy.quantile(0.99)), "us")
	r.put("trace.overhead_frac", us(traced.quantile(0.5))/us(plain.quantile(0.5))-1, "fraction")
	r.put("loadgen.late_p99_us", us(heavy.lateP99), "us")
	r.put("loadgen.sink_p50_us", us(sinkLight.quantile(0.5)), "us")
	r.put("loadgen.sink_late_p99_us", us(sinkHeavy.lateP99), "us")

	hits, misses := float64(st1.HotHits-st0.HotHits), float64(st1.HotMisses-st0.HotMisses)
	r.put("hotcache.hit_rate", ratio(hits, hits+misses), "fraction")
	served := float64(st1.Served - st0.Served)
	submitted := served + float64(st1.Rejected-st0.Rejected+st1.Shed-st0.Shed+st1.Faulted-st0.Faulted+st1.Timeouts-st0.Timeouts)
	r.put("server.batch_factor", ratio(served-hits, float64(st1.Batches-st0.Batches)), "queries/batch")
	r.put("server.rejected_frac", ratio(float64(st1.Rejected-st0.Rejected), submitted), "fraction")
	r.put("server.shed_frac", ratio(float64(st1.Shed-st0.Shed), submitted), "fraction")
	r.put("server.timeouts", float64(st1.Timeouts-st0.Timeouts), "count")
	r.put("netserve.queries_per_frame", ratio(float64(ds1.Queries-ds0.Queries), float64(ds1.Frames-ds0.Frames)), "queries/frame")
	cq := float64(cs1.Queries - cs0.Queries)
	r.put("hubclient.queries_per_frame", ratio(cq, float64(cs1.Frames-cs0.Frames)), "queries/frame")
	r.put("hubclient.pool_exhausted_frac", ratio(float64(cs1.PoolExhausted-cs0.PoolExhausted), cq), "fraction")
	r.put("hubclient.retries", float64(cs1.Retries-cs0.Retries), "count")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

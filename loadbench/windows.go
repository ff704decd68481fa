package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// Each load point is cut into equal time windows about windowWidth
// long. A percentile is taken over the latencies of all the point's
// clean windows pooled.
//
// A window is left out when the hypervisor took more than maxSteal of
// the guest's CPU time during it (steal time in /proc/stat). On a
// shared host steal comes in storms that last seconds, and even a few
// percent of it multiplies the latency of a lightly loaded guest, whose
// idle vCPUs wait for the host to wake them. The signal comes from
// outside the process, so nothing the code under test does can hide its
// own slowness behind it. When fewer than minClean windows are clean,
// the minClean windows with the least steal count.
const (
	windowWidth = 100 * time.Millisecond
	minClean    = 3
	maxSteal    = 0.05
	stealEvery  = 20 * time.Millisecond
)

// stealSample is one reading of the CPU-time counters, in clock ticks
// summed over all CPUs, at offset t into a pass.
type stealSample struct {
	t            time.Duration
	steal, total uint64
}

// readSteal parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal.
func readSteal() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(string(fields[i]), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// sampleSteal reads the counters every stealEvery until stop is closed,
// then sends what it read (one reading at the start and one at the end
// at least) on out.
func sampleSteal(start time.Time, stop <-chan struct{}, out chan<- []stealSample) {
	var ss []stealSample
	read := func() {
		if steal, total, err := readSteal(); err == nil {
			ss = append(ss, stealSample{time.Since(start), steal, total})
		}
	}
	tick := time.NewTicker(stealEvery)
	defer tick.Stop()
	read()
	for {
		select {
		case <-stop:
			read()
			out <- ss
			return
		case <-tick.C:
			read()
		}
	}
}

// stealShare returns the share of CPU time the hypervisor took between
// the last reading at or before from and the first at or after to.
func stealShare(ss []stealSample, from, to time.Duration) float64 {
	if len(ss) < 2 {
		return 0
	}
	a, b := 0, len(ss)-1
	for i, s := range ss {
		if s.t <= from {
			a = i
		}
		if s.t >= to {
			b = i
			break
		}
	}
	if b <= a || ss[b].total == ss[a].total {
		return 0
	}
	return float64(ss[b].steal-ss[a].steal) / float64(ss[b].total-ss[a].total)
}

// cutWindows splits the pass's latencies by the window their request
// was due in and records each window's steal share. lat and at are per
// request, in send order (at ascending); each window is a slice of lat.
func (res *passResult) cutWindows(lat []int64, at []time.Duration, ss []stealSample) {
	n := max(int((res.dur+windowWidth/2)/windowWidth), 1)
	width := res.dur / time.Duration(n)
	res.lat = make([][]int64, n)
	res.wsteal = make([]float64, n)
	lo := 0
	for k := range res.lat {
		from, to := time.Duration(k)*width, time.Duration(k+1)*width
		hi := len(at)
		if k < n-1 {
			hi = lo + sort.Search(len(at)-lo, func(i int) bool { return at[lo+i] >= to })
		}
		res.lat[k] = lat[lo:hi:hi]
		res.wsteal[k] = stealShare(ss, from, to)
		lo = hi
	}
	res.steal = stealShare(ss, 0, res.dur)
}

// merge joins passes at one rate into one result whose windows are all
// of theirs. The windows' latencies are shared, not copied.
func merge(parts []passResult) passResult {
	m := passResult{rate: parts[0].rate}
	var stealTime, answered float64
	for _, p := range parts {
		m.lat = append(m.lat, p.lat...)
		m.wsteal = append(m.wsteal, p.wsteal...)
		m.dur += p.dur
		m.attempted += p.attempted
		m.failed += p.failed
		stealTime += p.steal * p.dur.Seconds()
		answered += p.goodput * p.dur.Seconds()
	}
	m.steal = stealTime / m.dur.Seconds()
	m.goodput = answered / m.dur.Seconds()
	return m
}

// stormy reports whether steal took a third or more of the pass's
// windows.
func (res *passResult) stormy() bool { return res.cleanWindows()*3 < 2*len(res.lat) }

// cleanWindows counts the windows within maxSteal.
func (res *passResult) cleanWindows() int {
	c := 0
	for _, st := range res.wsteal {
		if st <= maxSteal {
			c++
		}
	}
	return c
}

// usedWindows returns the windows the quantiles read: the clean ones,
// or the minClean with the least steal when fewer are clean.
func (res *passResult) usedWindows() []int {
	var used []int
	for k, st := range res.wsteal {
		if st <= maxSteal {
			used = append(used, k)
		}
	}
	if len(used) >= minClean {
		return used
	}
	order := make([]int, len(res.wsteal))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return res.wsteal[order[i]] < res.wsteal[order[j]] })
	return order[:min(minClean, len(order))]
}

// quantile returns the p-quantile distance latency over the used
// windows' requests pooled.
func (res *passResult) quantile(p float64) int64 {
	var pooled []int64
	for _, k := range res.usedWindows() {
		pooled = append(pooled, res.lat[k]...)
	}
	return percentile(pooled, p)
}

// Command loadbench is the repository's benchmark. One process
// assembles the serving stack the way hubserve -binary -mmap does —
// index.LoadMmap over a container written by the hubgen path, a
// sharded server with flowctl admission and the hot cache, a netserve
// binary door on loopback and one pooled hubclient — and drives one
// named workload through it open loop, checking every answer against
// sssp.
//
//	loadbench --workload zipf-road --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// ledger and a traced load pass instead and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Progress and per-load-point detail go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	ws, err := loadWorkloads(workloadsJSON)
	if err == nil {
		err = run(os.Args[1:], ws, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's state.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer
	log     io.Writer
	s       *stack
	ref     *reference
	tf      *traffic
	// clientCalls counts requests issued through the hubclient, and
	// direct counts requests submitted to the server without the door
	// (the ledger's Try* calls): the accounting check needs both.
	clientCalls uint64
	direct      uint64
	// attempted and failed tally the fixed-rate load points.
	attempted, failed int
	metrics           map[string]metric
}

func run(args []string, ws map[string]*workload, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names(ws), ", "))
	seed := fs.Int64("seed", 1, "seed for the graph, the labeling order and the traffic")
	seconds := fs.Float64("seconds", 20, "measured seconds of load")
	trace := fs.Int("trace", 0, "1: per-layer ledger and traced pass; 0: end-to-end metrics")
	workDir := fs.String("work-dir", ".bench_build/work", "directory for containers and span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := ws[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names(ws), ", "))
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	r := &runner{
		w: w, seed: *seed, seconds: *seconds,
		tr:      newTracer(*trace == 1),
		log:     stderr,
		metrics: map[string]metric{},
	}
	fmt.Fprintf(stderr, "loadbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.Name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var err error
	if *trace == 1 {
		err = r.traced(*workDir)
		if err == nil {
			dump := filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, *seed))
			if werr := r.tr.write(dump); werr != nil {
				return werr
			}
			fmt.Fprintf(stderr, "loadbench: %d spans written to %s\n", len(r.tr.spans), dump)
		}
	} else {
		err = r.endToEnd(*workDir)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(report{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

func (r *runner) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// rng returns the stream of one named use of the seed: the same seed
// and use always draw the same inputs, whatever ran before.
func (r *runner) rng(use string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", r.seed, use)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// prepare computes the reference answers and the traffic model, outside
// every timed region.
func (r *runner) prepare() {
	r.ref = newReference(r.s.g, r.w.Sources, r.rng("sources"))
	r.tf = newTraffic(r.w, r.ref, r.s.g.NumNodes(), r.rng("pairs"))
}

// point drives one open-loop load point of rate q/s for dur.
func (r *runner) point(label string, rate float64, dur time.Duration, o passOpts) (passResult, error) {
	qs, at := r.tf.schedule(rate, dur, r.rng(label))
	res, err := r.pass(qs, at, dur, o)
	if !o.sink {
		r.clientCalls += uint64(res.attempted)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", label, err)
	}
	r.describe(label, res)
	return res, nil
}

// describe logs a load point and flags it when the generator's own
// lateness is not small next to the latency it measured.
func (r *runner) describe(label string, res passResult) {
	p50, p90, p99 := res.quantile(0.5), res.quantile(0.9), res.quantile(0.99)
	flag := ""
	if !res.sink && float64(res.lateP50) > 0.1*float64(p50) {
		flag = " FLAG: generator lateness not small against p50"
	}
	var errs []string
	for k, n := range res.errs {
		errs = append(errs, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(errs)
	fmt.Fprintf(r.log, "  %-14s offered=%8.0f/s n=%7d failed=%d dist p50=%7.1fus p90=%7.1fus p99=%8.1fus late p50=%6.1fus p99=%7.1fus drain=%v goodput=%.0f/s steal=%.1f%% clean=%d/%d %s%s\n",
		label, res.rate, res.attempted, res.failed, us(p50), us(p90), us(p99), us(res.lateP50), us(res.lateP99),
		res.drain.Round(time.Microsecond), res.goodput, 100*res.steal, res.cleanWindows(), len(res.lat),
		strings.Join(errs, ","), flag)
}

// settle lets the admission controller forget an overloaded point:
// its drop probability only decays as requests are served, so a light
// trickle runs until it reads zero and the queues are empty.
func (r *runner) settle() error {
	for i := 0; i < 20; i++ {
		if r.s.srv.AdmissionController().Probability(clientName) == 0 && r.s.srv.Stats().Queued == 0 {
			return nil
		}
		qs, at := r.tf.schedule(r.w.LightQPS, 100*time.Millisecond, r.rng("settle"))
		res, err := r.pass(qs, at, 100*time.Millisecond, passOpts{})
		r.clientCalls += uint64(res.attempted)
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	fmt.Fprintln(r.log, "  settle: admission still shedding after 2 s of light traffic")
	return nil
}

// shutdown drains the stack and checks that every request was resolved
// and counted exactly once: the client resolved every call it was
// given, and the server's outcome buckets sum to what reached it.
func (r *runner) shutdown() error {
	if err := r.s.close(); err != nil {
		return err
	}
	cs, ds, st := r.s.final.client, r.s.final.door, r.s.final.srv
	if cs.Queries != r.clientCalls {
		return fmt.Errorf("accounting: client resolved %d requests, %d were issued", cs.Queries, r.clientCalls)
	}
	sum := st.Served + st.Rejected + st.Shed + st.Faulted + st.Timeouts
	if want := ds.Queries + r.direct + st.Direct; sum != want {
		return fmt.Errorf("accounting: Served+Rejected+Shed+Faulted+Timeouts = %d, submitted %d (door %d, direct %d)",
			sum, want, ds.Queries, r.direct+st.Direct)
	}
	fmt.Fprintf(r.log, "loadbench: accounting exact: %d submitted = %d served + %d rejected + %d shed + %d faulted + %d timeouts\n",
		sum, st.Served, st.Rejected, st.Shed, st.Faulted, st.Timeouts)
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking from the
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// statusMB reads one memory field of /proc/self/status, such as VmRSS
// (the resident set now) or VmHWM (its peak), in MB.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

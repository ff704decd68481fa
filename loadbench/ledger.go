package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"time"

	"hublab/internal/graph"
	"hublab/internal/hub"
	"hublab/internal/index"
	"hublab/internal/wire"
)

// Ledger sizes: the workload's own distance pairs (and uniform path
// pairs) driven closed loop by one caller through each layer's entry
// point, in ledgerReps repetitions; each layer reports its median
// repetition.
const (
	ledgerPairs = 4096
	ledgerPaths = 64
	ledgerReps  = 5
	ledgerSwaps = 9
	frameBatch  = 16
	ledgerName  = "ledger"
	// ledgerCalls is how many of each set's pairs take a whole socket
	// round trip each: the 1-query frames and the hubclient calls.
	ledgerCalls = ledgerPairs / 4
)

// ledger times the workload's query trace through every layer from the
// merge kernel up to the hubclient. A layer's tax is its time minus the
// time of the layer below it.
func (r *runner) ledger(parent int) error {
	sp := r.tr.open("ledger", parent)
	defer r.tr.finish(sp)
	// Every repetition draws fresh pairs from the workload's own law, so
	// the hot cache sees the workload's reuse and nothing more: uniform
	// pairs miss it, Zipf pairs hit it.
	rng := r.rng("ledger")
	sets := make([]ledgerSet, ledgerReps)
	for k := range sets {
		sets[k] = newLedgerSet(r, rng)
	}
	x, ok := r.s.srv.Index().(*index.HubLabels)
	if !ok {
		return fmt.Errorf("ledger: served index is %T, want *index.HubLabels", r.s.srv.Index())
	}
	store := x.Store()
	paths := make([][]graph.NodeID, ledgerPaths)

	var entries float64
	for _, set := range sets {
		for _, p := range set.pairs {
			entries += float64(store.LabelLen(p[0]) + store.LabelLen(p[1]))
		}
	}
	entries /= ledgerPairs * ledgerReps

	// hub: the merge kernels the index dispatches to.
	queryNS, err := r.perOp("hub.query", sp, ledgerPairs, func(set *ledgerSet) error {
		for i, p := range set.pairs {
			set.out[i], _ = store.Query(p[0], p[1])
		}
		return set.check(r, "hub.query")
	}, sets)
	if err != nil {
		return err
	}
	batchNS, err := r.perOp("hub.batch", sp, ledgerPairs, func(set *ledgerSet) error {
		for i := 0; i < len(set.pairs); i += 3 {
			j := min(i+3, len(set.pairs))
			store.QueryBatch(set.pairs[i:j], set.out[i:j])
		}
		return set.check(r, "hub.batch")
	}, sets)
	if err != nil {
		return err
	}
	pathNS, err := r.perOp("hub.path", sp, ledgerPaths, func(set *ledgerSet) error {
		for i, q := range set.pq {
			u, v := q.pair(r.ref)
			var perr error
			if paths[i], perr = store.AppendPath(paths[i][:0], u, v); perr != nil {
				return fmt.Errorf("ledger hub.path: %w", perr)
			}
		}
		return set.checkPaths(r, "hub.path", paths)
	}, sets)
	if err != nil {
		return err
	}

	// index: the backend dispatch the server's shards call through.
	distNS, err := r.perOp("index.distance", sp, ledgerPairs, func(set *ledgerSet) error {
		for i, p := range set.pairs {
			set.out[i] = x.Distance(p[0], p[1])
		}
		return set.check(r, "index.distance")
	}, sets)
	if err != nil {
		return err
	}

	// server: one caller through the shard queues (admission and hot
	// cache on, as served).
	tryNS, err := r.perOp("server.tryquery", sp, ledgerPairs, func(set *ledgerSet) error {
		for i, p := range set.pairs {
			d, qerr := r.s.srv.TryQuery(ledgerName, p[0], p[1])
			if qerr != nil {
				return fmt.Errorf("ledger server.tryquery: %w", qerr)
			}
			set.out[i] = d
		}
		r.direct += ledgerPairs
		return set.check(r, "server.tryquery")
	}, sets)
	if err != nil {
		return err
	}
	tryPathNS, err := r.perOp("server.trypath", sp, ledgerPaths, func(set *ledgerSet) error {
		for i, q := range set.pq {
			u, v := q.pair(r.ref)
			var perr error
			if paths[i], perr = r.s.srv.TryPath(ledgerName, u, v, paths[i][:0]); perr != nil {
				return fmt.Errorf("ledger server.trypath: %w", perr)
			}
		}
		r.direct += ledgerPaths
		return set.checkPaths(r, "server.trypath", paths)
	}, sets)
	if err != nil {
		return err
	}

	// wire: encoding the workload's request frames and decoding their
	// replies, without a socket.
	codecNS, err := r.codec(sp, sets)
	if err != nil {
		return err
	}

	// netserve: raw frames round-tripped through the door, 16 queries a
	// frame (the door's batched wave) and 1 (a whole round trip per
	// query, as a single hubclient call pays).
	frameNS, err := r.frames("netserve.frame", sp, sets, frameBatch, ledgerPairs)
	if err != nil {
		return err
	}
	frame1NS, err := r.frames("netserve.frame1", sp, sets, 1, ledgerCalls)
	if err != nil {
		return err
	}

	// hubclient: one caller, one request at a time.
	clientNS, err := r.perOp("hubclient.distance", sp, ledgerCalls, func(set *ledgerSet) error {
		for i, p := range set.pairs[:ledgerCalls] {
			d, cerr := r.s.client.Distance(p[0], p[1])
			if cerr != nil {
				return fmt.Errorf("ledger hubclient.distance: %w", cerr)
			}
			if d != set.dq[i].want(r.ref) {
				return fmt.Errorf("ledger hubclient.distance: wrong distance for pair %v", p)
			}
		}
		r.clientCalls += ledgerCalls
		return nil
	}, sets)
	if err != nil {
		return err
	}
	clientPathNS, err := r.perOp("hubclient.path", sp, ledgerPaths, func(set *ledgerSet) error {
		for i, q := range set.pq {
			u, v := q.pair(r.ref)
			var perr error
			if paths[i], perr = r.s.client.Path(u, v, paths[i][:0]); perr != nil {
				return fmt.Errorf("ledger hubclient.path: %w", perr)
			}
		}
		r.clientCalls += ledgerPaths
		return set.checkPaths(r, "hubclient.path", paths)
	}, sets)
	if err != nil {
		return err
	}

	compact, err := r.compactMS(sp, store)
	if err != nil {
		return err
	}
	open, swap, err := r.reopen(sp)
	if err != nil {
		return err
	}

	r.put("hub.query_ns", queryNS, "ns")
	r.put("hub.batch_ns", batchNS, "ns")
	r.put("hub.entries_per_query", entries, "entries")
	r.put("hub.ns_per_entry", queryNS/entries, "ns/entry")
	r.put("hub.path_ns", pathNS, "ns")
	r.put("hub.compact_ms", compact, "ms")
	r.put("index.distance_ns", distNS, "ns")
	r.put("index.tax_ns", distNS-queryNS, "ns")
	r.put("index.open_us", open, "us")
	r.put("server.tryquery_ns", tryNS, "ns")
	r.put("server.ns_per_entry", tryNS/entries, "ns/entry")
	r.put("server.tax_ns", tryNS-distNS, "ns")
	r.put("server.trypath_us", tryPathNS/1e3, "us")
	r.put("server.swap_us", swap, "us")
	r.put("wire.codec_ns", codecNS, "ns")
	r.put("netserve.frame_us", frameNS/1e3, "us")
	r.put("netserve.frame1_us", frame1NS/1e3, "us")
	r.put("netserve.tax_ns", frame1NS-tryNS, "ns")
	r.put("hubclient.distance_us", clientNS/1e3, "us")
	r.put("hubclient.tax_ns", clientNS-frame1NS, "ns")
	r.put("hubclient.path_us", clientPathNS/1e3, "us")
	return nil
}

// ledgerSet is one repetition's sample: distance pairs drawn by the
// workload's law and uniform path pairs, with their reference answers.
type ledgerSet struct {
	dq    []query
	pairs [][2]graph.NodeID
	pq    []query
	out   []graph.Weight
}

func newLedgerSet(r *runner, rng *rand.Rand) ledgerSet {
	set := ledgerSet{
		dq:    make([]query, ledgerPairs),
		pairs: make([][2]graph.NodeID, ledgerPairs),
		pq:    make([]query, ledgerPaths),
		out:   make([]graph.Weight, ledgerPairs),
	}
	for i := range set.dq {
		set.dq[i] = r.tf.dist(rng)
		u, v := set.dq[i].pair(r.ref)
		set.pairs[i] = [2]graph.NodeID{u, v}
	}
	for i := range set.pq {
		set.pq[i] = r.tf.uniform(rng)
	}
	return set
}

func (set *ledgerSet) check(r *runner, layer string) error {
	for i := range set.dq {
		if want := set.dq[i].want(r.ref); set.out[i] != want {
			return fmt.Errorf("ledger %s: wrong distance for pair %v: %d, want %d", layer, set.pairs[i], set.out[i], want)
		}
	}
	return nil
}

func (set *ledgerSet) checkPaths(r *runner, layer string, paths [][]graph.NodeID) error {
	for i, q := range set.pq {
		u, v := q.pair(r.ref)
		if !checkPath(r.s.g, paths[i], u, v, q.want(r.ref)) {
			return fmt.Errorf("ledger %s: wrong path for pair (%d,%d)", layer, u, v)
		}
	}
	return nil
}

// perOp runs body once untimed on the first set, to fault in the pages
// and caches it touches, then once per ledger set, each repetition a
// span, and returns the median repetition's time per operation in ns.
func (r *runner) perOp(name string, parent, ops int, body func(*ledgerSet) error, sets []ledgerSet) (float64, error) {
	if err := body(&sets[0]); err != nil {
		return 0, err
	}
	times := make([]float64, 0, len(sets))
	for k := range sets {
		d, err := r.tr.timed(name, parent, func() error { return body(&sets[k]) })
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d)/float64(ops))
	}
	return median(times), nil
}

// frameQueries groups pairs into request batches of up to batch
// queries.
func frameQueries(pairs [][2]graph.NodeID, batch int) [][]wire.Query {
	var frames [][]wire.Query
	for i := 0; i < len(pairs); i += batch {
		j := min(i+batch, len(pairs))
		qs := make([]wire.Query, 0, j-i)
		for _, p := range pairs[i:j] {
			qs = append(qs, wire.Query{Kind: wire.QDist, U: p[0], V: p[1]})
		}
		frames = append(frames, qs)
	}
	return frames
}

// codec times wire.AppendRequest plus wire.ParseReply per query over the
// workload's 16-query frames; the replies carry the reference answers.
func (r *runner) codec(parent int, sets []ledgerSet) (float64, error) {
	type encoded struct {
		frames  [][]wire.Query
		replies [][]byte // each frame's reply payload
	}
	enc := make(map[*ledgerSet]encoded, len(sets))
	for k := range sets {
		set := &sets[k]
		e := encoded{frames: frameQueries(set.pairs, frameBatch)}
		for f, qs := range e.frames {
			rs := make([]wire.Result, len(qs))
			for i := range qs {
				rs[i] = wire.Result{Kind: wire.QDist, Dist: set.dq[f*frameBatch+i].want(r.ref), Far: -1}
			}
			frame, err := wire.AppendReply(nil, uint64(f), rs)
			if err != nil {
				return 0, err
			}
			e.replies = append(e.replies, frame[8:]) // the payload after the fixed header
		}
		enc[set] = e
	}
	kinds := make([]uint8, frameBatch)
	var buf []byte
	rs := make([]wire.Result, 0, frameBatch)
	return r.perOp("wire.codec", parent, ledgerPairs, func(set *ledgerSet) error {
		e := enc[set]
		for f, qs := range e.frames {
			var err error
			if buf, err = wire.AppendRequest(buf[:0], uint64(f), qs); err != nil {
				return err
			}
			if _, rs, err = wire.ParseReply(e.replies[f], kinds[:len(qs)], rs[:0]); err != nil {
				return err
			}
			for i := range rs {
				if rs[i].Dist != set.dq[f*frameBatch+i].want(r.ref) {
					return fmt.Errorf("ledger wire.codec: reply decoded to a different distance")
				}
			}
		}
		return nil
	}, sets)
}

// frames round-trips the first n pairs of each set through the door as
// raw request frames of batch queries, over one connection with one
// frame in flight, and returns ns per query.
func (r *runner) frames(name string, parent int, sets []ledgerSet, batch, n int) (float64, error) {
	groups := make(map[*ledgerSet][][]wire.Query, len(sets))
	for k := range sets {
		groups[&sets[k]] = frameQueries(sets[k].pairs[:n], batch)
	}
	conn, err := net.Dial("tcp", r.s.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	hello, err := wire.AppendHello(nil, ledgerName)
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(hello); err != nil {
		return 0, err
	}
	br := bufio.NewReader(conn)
	kinds := make([]uint8, batch)
	var buf, payload []byte
	rs := make([]wire.Result, 0, batch)
	return r.perOp(name, parent, n, func(set *ledgerSet) error {
		for f, qs := range groups[set] {
			if buf, err = wire.AppendRequest(buf[:0], uint64(f), qs); err != nil {
				return err
			}
			if _, err := conn.Write(buf); err != nil {
				return err
			}
			kind, p, err := wire.ReadFrame(br, &payload, 0)
			if err != nil {
				return err
			}
			if kind != wire.FrameReply {
				return fmt.Errorf("ledger %s: frame kind %d, want a reply", name, kind)
			}
			if _, rs, err = wire.ParseReply(p, kinds[:len(qs)], rs[:0]); err != nil {
				return err
			}
			for i := range rs {
				if err := wire.StatusError(rs[i].Status); err != nil {
					return fmt.Errorf("ledger %s: %w", name, err)
				}
				if rs[i].Dist != set.dq[f*batch+i].want(r.ref) {
					return fmt.Errorf("ledger %s: wrong distance for pair %v", name, set.pairs[f*batch+i])
				}
			}
		}
		return nil
	}, sets)
}

// compactMS times the compact encoder over the served labeling (the
// encoder the v4 container writer feeds), once.
func (r *runner) compactMS(parent int, store hub.LabelStore) (float64, error) {
	var flat *hub.FlatLabeling
	switch s := store.(type) {
	case *hub.FlatLabeling:
		flat = s
	case *hub.CompactLabeling:
		flat = s.Expand()
	default:
		return 0, fmt.Errorf("ledger: unknown label store %T", store)
	}
	d, err := r.tr.timed("hub.compact", parent, func() error {
		hub.CompactFromFlat(flat)
		return nil
	})
	return ms(d), err
}

// reopen times index.LoadMmap of the served container and the
// server.SwapRetire that installs it, as a hubserve reload does, and
// returns the medians in µs.
func (r *runner) reopen(parent int) (open, swap float64, err error) {
	var opens, swaps []float64
	for k := 0; k < ledgerSwaps; k++ {
		var idx *index.HubLabels
		d, err := r.tr.timed("index.open", parent, func() (err error) {
			idx, err = index.LoadMmap(r.s.path)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, float64(d)/float64(time.Microsecond))
		d, _ = r.tr.timed("server.swap", parent, func() error {
			r.s.srv.SwapRetire(idx)
			return nil
		})
		swaps = append(swaps, float64(d)/float64(time.Microsecond))
	}
	return median(opens), median(swaps), nil
}

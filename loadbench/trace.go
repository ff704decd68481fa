package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer:
// the benchmark's own files record every span, the program under test
// records none. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. When off it still
// hands out durations, so traced and untraced runs share one code path,
// but records nothing.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its id (0 when tracing is
// off).
func (t *tracer) add(name string, parent int, start, end int64) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close it with
// finish.
func (t *tracer) open(name string, parent int) int {
	now := t.now()
	return t.add(name, parent, now, now)
}

func (t *tracer) finish(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	start := t.now()
	err := f()
	end := t.now()
	t.add(name, parent, start, end)
	return time.Duration(end - start), err
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Spans of one request share Req; Parent links a call to the
// span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanLog is one goroutine's span buffer; it is merged into the tracer
// when the goroutine finishes, so recording takes no lock.
type spanLog struct {
	t     *tracer
	spans []span
}

func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	return &spanLog{t: t}
}

// begin opens a span and returns its id and start time; end closes it.
func (l *spanLog) begin() (uint64, time.Time) {
	if l == nil {
		return 0, time.Time{}
	}
	return l.t.ids.Add(1), time.Now()
}

func (l *spanLog) end(id, parent, req uint64, layer, name string, start time.Time) time.Duration {
	if l == nil {
		return 0
	}
	now := time.Now()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(l.t.epoch)), End: int64(now.Sub(l.t.epoch)),
	})
	return now.Sub(start)
}

func (l *spanLog) flush() {
	if l == nil || len(l.spans) == 0 {
		return
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("writing spans: %w", err)
	}
	return len(t.spans), nil
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use (the service clients record from several goroutines).
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span of the given layer and returns its ID.
func (l *spanLog) begin(layer string, parent, op int) int {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Start: now, End: now})
	return id
}

// end closes the span.
func (l *spanLog) end(id int) {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// do times f as a span of the given layer.
func (l *spanLog) do(layer string, parent, op int, f func()) {
	id := l.begin(layer, parent, op)
	f()
	l.end(id)
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// self returns the summed self time of a layer's spans: each span's
// duration minus the part its child spans cover.
func (l *spanLog) self(layer string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int]time.Duration{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var t time.Duration
	for _, s := range l.spans {
		if s.Layer == layer {
			t += max(0, s.dur()-child[s.ID])
		}
	}
	return t
}

// durations returns every span duration of a layer, in record order.
func (l *spanLog) durations(layer string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Layer == layer {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

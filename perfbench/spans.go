package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one query
// share its Query id; Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name    string `json:"name"`
	Query   int    `json:"query"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one pointer test per call.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(name string, query, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Query: query, Parent: parent, StartNs: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].EndNs = time.Since(l.t0).Nanoseconds()
}

// millis returns the durations of every span with the given name, in ms.
func (l *spanLog) millis(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

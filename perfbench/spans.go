package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the public weaver API. Spans of one operation share Req; Parent is the
// index of the enclosing span within the same log, or -1 for the root.
type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
}

// spanLog keeps one client goroutine's spans in memory. A nil *spanLog is
// the untraced mode: every method is a no-op.
type spanLog struct {
	epoch  time.Time
	client uint64
	req    uint64
	spans  []span
}

func newSpanLog(epoch time.Time, client int) *spanLog {
	return &spanLog{epoch: epoch, client: uint64(client)}
}

// root opens the root span of a new operation.
func (l *spanLog) root(name string) int {
	if l == nil {
		return -1
	}
	l.req++
	return l.begin(name, -1)
}

// begin opens a child span of parent in the current operation.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.add(name, parent, l.now(), 0)
	return len(l.spans) - 1
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = l.now()
}

// now is the log's clock: nanoseconds since its epoch.
func (l *spanLog) now() int64 { return time.Since(l.epoch).Nanoseconds() }

// add records a completed child span of parent over [start, end], for
// intervals the benchmark learns after the fact: the per-stage timings
// ExplainWhere reports and the gaps between RunTx attempts.
func (l *spanLog) add(name string, parent int, start, end int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Req: l.client<<48 | l.req, ID: len(l.spans), Parent: parent, Name: name, Start: start, End: end})
}

// durations returns the durations, in microseconds, of every span named
// name across logs.
func durations(logs []*spanLog, name string) []float64 {
	var out []float64
	for _, l := range logs {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

// countSpans counts spans named name across logs.
func countSpans(logs []*spanLog, name string) int {
	n := 0
	for _, l := range logs {
		for _, s := range l.spans {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// writeSpans writes every span as one JSON object per line; (req, id)
// identifies a span, and the top 16 bits of req name the client.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("encode span: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

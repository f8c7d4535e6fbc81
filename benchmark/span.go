package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded from the benchmark's own files around
// a call into one layer. Spans of one batch share Batch; Parent is the ID of
// the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Batch  int    `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// trace hands out span identifiers and the common clock origin; each
// recording goroutine owns a spanBuf, so recording takes no lock. Spans stay
// in memory until the run ends.
type trace struct {
	t0   time.Time
	next atomic.Int64
}

func newTrace() *trace { return &trace{t0: time.Now()} }

type spanBuf struct {
	tr    *trace
	spans []span
}

func (tr *trace) buf() *spanBuf { return &spanBuf{tr: tr} }

// begin opens a span and returns its index in the buffer.
func (b *spanBuf) begin(name string, parent int64, batch int) int {
	b.spans = append(b.spans, span{
		ID: b.tr.next.Add(1), Parent: parent, Name: name, Batch: batch,
		Start: int64(time.Since(b.tr.t0)),
	})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) { b.spans[i].End = int64(time.Since(b.tr.t0)) }

func (b *spanBuf) id(i int) int64 { return b.spans[i].ID }

// selfStat is one span name's aggregate: how many spans, and how much of
// their time was not covered by child spans.
type selfStat struct {
	Count  int
	SelfNs int64
}

// selfTimes computes, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover (overlapping
// children are counted once).
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfStat)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.SelfNs += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string  `json:"workload"`
	Env      envInfo `json:"env"`
	// BatchTuples is the workload's batch size, so a reader can turn time
	// per stage call into time per tuple.
	BatchTuples int    `json:"batch_tuples"`
	Spans       []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	err = json.Unmarshal(data, &tf)
	return tf, err
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call: its name, its interval in nanoseconds since the
// tracer started, the span that caused it (-1 for none) and the index of
// the stream op it serves.
type Span struct {
	ID, Parent int
	Name       string
	Op         int
	Start, End int64
}

// Tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so the same replay code runs traced and untraced.
type Tracer struct {
	on    bool
	base  time.Time
	spans []Span
}

func NewTracer(on bool) *Tracer { return &Tracer{on: on, base: time.Now()} }

// Begin opens a span and returns its id (-1 when tracing is off).
func (t *Tracer) Begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.base))})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// WriteCSV writes the spans to path, one per line.
func (t *Tracer) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,op,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Name, s.Op, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover. Children that overlap one
// another are counted once; parts of a child outside its parent are not
// counted.
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals within p's.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// RungTimes sums the durations of each rung's call spans — the direct
// children of the span named root — split by whether the op they serve is
// a read (isRead reports it from the op index).
func RungTimes(spans []Span, root string, isRead func(op int) bool) (readNS, writeNS int64) {
	rootID := -2
	for _, s := range spans {
		if s.Name == root && s.Parent < 0 {
			rootID = s.ID
		}
	}
	for _, s := range spans {
		if s.Parent != rootID {
			continue
		}
		if isRead(s.Op) {
			readNS += s.End - s.Start
		} else {
			writeNS += s.End - s.Start
		}
	}
	return readNS, writeNS
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"npdbench/internal/obs"
)

// span is one timed call recorded by the benchmark around a public call
// into a layer, or an engine stage span copied from Answer.Trace. Times
// are offsets from the recorder's epoch so that every span of a run sits
// on one clock.
type span struct {
	Name     string            `json:"name"`
	Start    time.Duration     `json:"start_ns"`
	Dur      time.Duration     `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*span           `json:"children,omitempty"`
}

func (s *span) end() time.Duration { return s.Start + s.Dur }

// selfTime is the span's duration minus the part of its interval that its
// children cover. Overlapping children (parallel stages) are counted
// once, and a child running past its parent is clipped to the parent.
func (s *span) selfTime() time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		lo, hi := max(c.Start, s.Start), min(c.end(), s.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return s.Dur - covered
}

// walk visits s and every descendant, depth first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// trace is the span tree of one benchmark operation; its spans share ID.
type trace struct {
	ID   string `json:"trace_id"`
	Root *span  `json:"root"`
}

// recorder keeps the traces of a run in memory and writes them out once,
// when the run ends. A nil recorder records nothing, so untraced runs pay
// one nil check per call. It is used from one goroutine.
type recorder struct {
	epoch time.Time
	kept  []*trace
}

func newRecorder() *recorder { return &recorder{epoch: obs.Now()} }

// begin opens a span that started at t.
func (r *recorder) begin(name string, t time.Time) *span {
	if r == nil {
		return nil
	}
	return &span{Name: name, Start: t.Sub(r.epoch)}
}

// finish closes s at t.
func (r *recorder) finish(s *span, t time.Time) {
	if s != nil {
		s.Dur = t.Sub(r.epoch) - s.Start
	}
}

// keep stores root as a new trace.
func (r *recorder) keep(root *span) {
	if r == nil || root == nil {
		return
	}
	r.kept = append(r.kept, &trace{ID: fmt.Sprintf("t%06d", len(r.kept)+1), Root: root})
}

// engineSpan converts an engine span tree onto the recorder's clock.
func (r *recorder) engineSpan(s *obs.Span) *span {
	if r == nil || s == nil {
		return nil
	}
	out := &span{Name: s.Name, Start: s.Began.Sub(r.epoch), Dur: s.Duration}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Val
		}
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, r.engineSpan(c))
	}
	return out
}

// writeJSONL writes one trace per line to path.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range r.kept {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"testing"
	"time"
)

func sp(name string, start, dur time.Duration, children ...*span) *span {
	return &span{Name: name, Start: start * time.Millisecond, Dur: dur * time.Millisecond, Children: children}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name string
		s    *span
		want time.Duration
	}{
		{"leaf", sp("a", 0, 10), 10},
		{"disjoint children", sp("a", 0, 100, sp("b", 10, 20), sp("c", 50, 30)), 50},
		// aggregate-pushdown style: a child that itself nests stages
		// counts once, its own children do not reduce the parent again.
		{"nested", sp("a", 0, 100, sp("b", 0, 60, sp("c", 0, 50))), 40},
		// parallel children overlap: the covered interval is 10..50.
		{"overlapping children", sp("a", 0, 100, sp("b", 10, 30), sp("c", 20, 30)), 60},
		{"child past parent is clipped", sp("a", 0, 100, sp("b", 90, 30)), 90},
		{"children out of order", sp("a", 0, 100, sp("c", 70, 10), sp("b", 10, 10)), 80},
	}
	for _, tc := range cases {
		if got := tc.s.selfTime(); got != tc.want*time.Millisecond {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want*time.Millisecond)
		}
	}
}

func TestExecutionLayersUsesSelfTime(t *testing.T) {
	// The execute stage nested under aggregate-pushdown is charged to
	// execute; aggregate-pushdown keeps only its own bookkeeping.
	root := sp("bench.execute", 0, 100,
		sp("bench.parse", 0, 5),
		sp("bench.answer", 5, 95,
			sp("query", 5, 95,
				sp("aggregate-pushdown", 5, 80,
					sp("execute", 10, 60),
					sp("assemble", 70, 10)))))
	l := executionLayers(root, nil, nil, 0)
	want := map[string]float64{"parse.ms": 5, "execute.ms": 60, "assemble.ms": 10, "aggregate_pushdown.ms": 10, "finalize.ms": 15}
	for k, v := range want {
		if l[k] != v {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// runtimeDelta is the Go runtime's allocation and GC work over an interval,
// read from runtime/metrics outside the program.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCycles:   float64(s[2].Value.Uint64()),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Command npdperf is the repository's benchmark. It runs one workload of
// the NPD query mix against the engine users get (core.DefaultOptions(),
// served through internal/server for the serving workloads), checks every
// answer against a reference computed in a separate process, and prints
// every metric by name and unit, ending with one JSON line.
//
//	npdperf --workload mix-npd5|mix-cold|serve-mix|serve-open|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the end-to-end metrics are measured with observability
// off; --trace 1 is the separate traced run that gives the per-layer
// metrics and the tracing overhead. The command exits 1 when any answer
// differs from its reference or any execution fails.
//
// Each workload runs in a child process of its own, so its peak resident
// memory is its alone; the reference answers are computed in another
// child before it and cached under --cache per binary and instance.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	cache    string
	role     string // "" runs workloads as children; "reference" or "measure" is a child; "expected" is maintenance
	ref      string // measure: reference file; reference and expected: output file
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "all", "workload to run: mix-npd5, mix-cold, serve-mix, serve-open or all")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the mix query orders and of the open-loop arrivals")
	flag.IntVar(&c.seconds, "seconds", 24, "measurement budget per run in seconds")
	flag.IntVar(&c.trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.StringVar(&c.cache, "cache", ".bench_build/npdperf", "directory for reference answers and span dumps")
	flag.StringVar(&c.role, "role", "", "internal: child role (reference or measure), or expected to regenerate a committed expected answer")
	flag.StringVar(&c.ref, "ref", "", "internal: reference answer file")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "npdperf:", err)
		if c.role == "measure" && errors.Is(err, errIncorrect) {
			os.Exit(exitIncorrect)
		}
		os.Exit(1)
	}
}

// errIncorrect ends a measuring child that printed its result but saw a
// failed execution or a wrong answer; it exits with exitIncorrect.
var errIncorrect = errors.New("answers differ from the reference or executions failed")

const exitIncorrect = 3

func run(c config) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	switch c.role {
	case "reference":
		w, err := workloadByName(c.workload)
		if err != nil {
			return err
		}
		ref, err := computeReference(w)
		if err != nil {
			return err
		}
		return writeJSON(c.ref, ref)
	case "expected":
		w, err := workloadByName(c.workload)
		if err != nil {
			return err
		}
		exp, err := computeExpected(w)
		if err != nil {
			return err
		}
		return writeJSON(c.ref, exp)
	case "measure":
		w, err := workloadByName(c.workload)
		if err != nil {
			return err
		}
		return measure(c, w)
	case "":
		return orchestrate(c)
	}
	return fmt.Errorf("unknown role %q", c.role)
}

// orchestrate runs each selected workload as reference child (unless the
// reference is cached) followed by a measuring child whose standard output
// becomes ours.
func orchestrate(c config) error {
	sel := workloads
	if c.workload != "all" {
		w, err := workloadByName(c.workload)
		if err != nil {
			return err
		}
		sel = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.cache, 0o755); err != nil {
		return err
	}
	build, err := fileHash(self)
	if err != nil {
		return err
	}
	incorrect := false
	for _, w := range sel {
		ref := filepath.Join(c.cache, fmt.Sprintf("ref-%s-%s.json", w.key(), build))
		if _, err := os.Stat(ref); err != nil {
			if err := child(self, os.Stderr, "--role", "reference", "--workload", w.name, "--ref", ref); err != nil {
				return fmt.Errorf("computing the %s reference: %w", w.name, err)
			}
		}
		err := child(self, os.Stdout, "--role", "measure", "--workload", w.name,
			"--seed", strconv.FormatInt(c.seed, 10), "--seconds", strconv.Itoa(c.seconds),
			"--trace", strconv.Itoa(c.trace), "--cache", c.cache, "--ref", ref)
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit) && exit.ExitCode() == exitIncorrect:
			incorrect = true
		case err != nil:
			return fmt.Errorf("measuring %s: %w", w.name, err)
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// child runs this binary with args, sending its standard output to stdout
// and its standard error to ours, and waits for it to exit. The child is
// killed if this process dies first, so no measurement outlives the run.
func child(self string, stdout io.Writer, args ...string) error {
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd.Run()
}

// fileHash names the build, so that cached references never outlive the
// code that computed them.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

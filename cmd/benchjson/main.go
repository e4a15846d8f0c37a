// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON array (stdout), one object per benchmark with its iteration count and
// every reported metric (ns/op, B/op, allocs/op, and custom b.ReportMetric
// units like claims_ok_ratio). `make bench-json` pipes the repository's
// benchmark suite through it to produce the BENCH_*.json artifacts CI
// uploads, seeding the performance trajectory.
//
// Each entry also carries its provenance, so a comparison can tell a code
// change from a host change: the `cpu:` line `go test` prints before the
// benchmarks, the host's CPU count, the GOMAXPROCS the benchmark ran at (the
// `-N` suffix `go test` appends to its name, absent at 1), the Go version
// and the commit. The Go version is this program's own runtime.Version():
// `go run ./cmd/benchjson` builds it with the same toolchain that ran the
// benchmarks. The commit is the working directory's HEAD, "unknown" outside
// a git checkout.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./cmd/benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	CPU        string             `json:"cpu,omitempty"`
	NProc      int                `json:"nproc,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	GoVersion  string             `json:"go_version,omitempty"`
	Commit     string             `json:"commit,omitempty"`
}

// gitCommit is the commit checked out in dir, "unknown" when dir is not in a
// git checkout (or git is missing).
func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// splitProcs splits the `-N` GOMAXPROCS suffix off a benchmark name; a name
// without one ran at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

// parse reads `go test -bench` output and returns one Entry per result line,
// each stamped with this host's provenance and commit.
func parse(r io.Reader, commit string) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	entries := []Entry{}
	pkg, cpu := "", ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcs(fields[0])
		e := Entry{
			Name:       name,
			Package:    pkg,
			Iterations: iters,
			Metrics:    map[string]float64{},
			CPU:        cpu,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: procs,
			GoVersion:  runtime.Version(),
			Commit:     commit,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

func main() {
	entries, err := parse(os.Stdin, gitCommit("."))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

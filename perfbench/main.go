// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points, checks every
// output, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (times measured
// with nothing but the benchmark's own clocks around each call); with
// --trace 1 they are the per-layer ones, taken from a separate traced
// run that records a span around every module call. See README.md for
// the metric list, the workloads and why each exists.
//
// Usage (from the repository root):
//
//	sh perfbench/run.sh --workload grid-paper|grid-dse|serve-mix \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// maxWorkers caps the pool width and client connections, so a run on a
// large host measures the same configuration as one on a 2-CPU host.
const maxWorkers = 2

// workers is the pool width every workload runs at: nproc, capped.
func workers() int {
	return min(runtime.NumCPU(), maxWorkers)
}

// runConfig is what one invocation measures.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is one run's outcome before it is printed.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

// fail records a correctness problem; any problem fails the run.
func (r *result) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*result, error){
	"grid-paper": runGridPaper,
	"grid-dse":   runGridDSE,
	"serve-mix":  runServeMix,
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "grid-paper, grid-dse or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload grid-paper|grid-dse|serve-mix, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if vars := casaVars(); len(vars) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: the benchmark measures the default configuration only\n",
			strings.Join(vars, ", "))
		os.Exit(2)
	}
	stamp, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": *traceFlag, "host": fingerprint(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(stamp))

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	printTable(res)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metricMap(res.metrics),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// casaVars lists the set CASA_* environment variables: each one
// switches the program off its default path.
func casaVars() []string {
	var out []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "CASA_") {
			out = append(out, kv[:strings.IndexByte(kv, '=')])
		}
	}
	sort.Strings(out)
	return out
}

// fingerprint identifies the host and the measured source tree.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workers":    workers(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured code: the VCS revision when the build
// recorded one, else a hash of the program's Go sources and go.mod in
// the working directory (a benchmark checkout need not be a git
// repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + modified
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just leaves the hash
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}

// elapsed returns seconds since start.
func elapsed(start time.Time) float64 { return time.Since(start).Seconds() }

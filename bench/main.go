// Command bench is the repository benchmark: it runs one workload against
// the hbnd daemon over loopback TCP or against serve.Cluster in process,
// checks the results, and prints every metric BENCHMARK.json names. See
// README.md for the workloads and the layer map.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload net-small-batch --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced replay and reports the
// per-layer metrics instead. A failed correctness gate exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	spans := flag.String("spans", "", "file a traced run writes its spans to (default .bench_build/spans-<workload>.json)")
	flag.Parse()

	sp, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload one of %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans-"+sp.name+".json")
	}
	os.Exit(run(os.Stdout, sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans))
}

func workloadNames() string {
	var names []string
	for _, sp := range workloads {
		names = append(names, sp.name)
	}
	return strings.Join(names, ", ")
}

// run executes one workload and prints its report; it returns the exit
// code.
func run(w io.Writer, sp spec, seed int64, seconds time.Duration, traced bool, spansPath string) int {
	h := hostInfo()
	meta, _ := json.Marshal(map[string]any{
		"workload": sp.name, "seed": seed, "seconds": seconds.Seconds(), "trace": traced,
		"cpu": h.cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": h.commit,
	})
	fmt.Fprintf(w, "host %s\n", meta)

	r := newReport()
	var err error
	switch {
	case sp.net && traced:
		err = traceNet(sp, seed, seconds, spansPath, r)
	case sp.net:
		err = runNet(sp, seed, seconds, r)
	case traced:
		err = traceIngest(sp, seed, seconds, spansPath, r)
	default:
		err = runIngest(sp, seed, seconds, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	correct, err := r.write(w, list, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

type host struct{ cpu, commit string }

// hostInfo names the CPU model and the commit the binary was built from:
// the VCS stamp of the build, else the checkout's git HEAD, else
// "unknown" (a source export has neither).
func hostInfo() host {
	h := host{cpu: "unknown", commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			h.commit = rev + dirty
			return h
		}
	}
	if _, err := os.Stat(".git"); err != nil {
		return h
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.commit = strings.TrimSpace(string(out))
	}
	return h
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hbn/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bm benchmarkFile
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bm
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	bm := readBenchmark(t)
	if !slices.Equal(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	if n := len(bm.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(bm.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(bm.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var specNames []string
	for _, sp := range workloads {
		specNames = append(specNames, sp.name)
	}
	var jsonNames []string
	for _, w := range bm.Workloads {
		name(w.Name)
		jsonNames = append(jsonNames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if !slices.Equal(jsonNames, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark defines %v", jsonNames, specNames)
	}

	var maxBound, setupBound float64
	var e2e, layer []metric
	for _, m := range bm.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bm.PerLayer {
		name(m.Name)
		layer = append(layer, metric{m.Name, m.Unit, m.Better})
	}
	for _, m := range append(slices.Clone(e2e), layer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the metrics the benchmark prints:\n%v\n%v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metrics the benchmark prints:\n%v\n%v", layer, perLayer)
	}
}

// smoke shrinks a workload so that one run takes about a second while
// every percentile the run reports keeps enough samples beyond it.
func smoke(sp spec) spec {
	sp.events /= 32
	sp.batch = max(sp.batch/16, 16)
	sp.epoch /= 4
	sp.snapEvery /= 30
	return sp
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			list := endToEnd
			if traced {
				list = perLayer
			}
			t.Run(sp.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var out bytes.Buffer
				if code := run(&out, smoke(sp), 7, time.Second, traced, spans); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				text := strings.TrimSpace(out.String())
				var res result
				if err := json.Unmarshal([]byte(text[strings.LastIndex(text, "\n")+1:]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, text)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("%s missing from the result", m.name)
					case got.Unit != m.unit:
						t.Errorf("%s: unit %q, want %q", m.name, got.Unit, m.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.name, got.Value)
					}
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` .* ` + regexp.QuoteMeta(m.unit) + ` `).MatchString(text) {
						t.Errorf("%s is not printed by name with its unit", m.name)
					}
				}
				if !strings.Contains(text, `"commit":`) || !strings.Contains(text, `"gomaxprocs":`) {
					t.Errorf("no host metadata:\n%s", text)
				}
				if traced {
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

func TestExactPercentiles(t *testing.T) {
	s := newSamples(100)
	for i := 1; i <= 100; i++ {
		s.add(int64(101 - i))
	}
	for _, c := range []struct {
		q            float64
		want, beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0, 1, 99}} {
		if v, b := s.quantile(c.q); v != int64(c.want) || b != c.beyond {
			t.Errorf("q=%v: got %d (%d beyond), want %d (%d beyond)", c.q, v, b, c.want, c.beyond)
		}
	}

	// 990 batches at 3 ms and 10 at 8 ms: the exact p99 is 3 ms, while
	// the obs histogram answers with its log₂ bucket's upper bound.
	s = newSamples(1000)
	var h obs.Histogram
	for i := 0; i < 1000; i++ {
		v := 3 * time.Millisecond
		if i >= 990 {
			v = 8 * time.Millisecond
		}
		s.add(int64(v))
		h.Observe(int64(v))
	}
	if v, b := s.quantile(0.99); v != int64(3*time.Millisecond) || b != 10 {
		t.Errorf("exact p99 = %v (%d beyond), want 3ms (10 beyond)", time.Duration(v), b)
	}
	if v := h.Snapshot().Quantile(0.99); v != obs.BucketUpper(22) {
		t.Errorf("obs p99 = %v, want the bucket bound %v", time.Duration(v), time.Duration(obs.BucketUpper(22)))
	}

	r := newReport()
	r.pct("p99", s, 0.99, perMS)
	r.pct("p999", s, 0.999, perMS)
	if r.values["p99"] != 3 || !r.omitted["p999"] {
		t.Errorf("p99 = %v, p999 omitted = %v: want 3 and true (1 sample beyond)", r.values["p99"], r.omitted["p999"])
	}
}

// TestBaselineSetsAgree checks the committed baselines: every run was
// correct with nothing failed, for every workload and end-to-end metric
// the two sets' medians differ by less than the metric's bound, and the
// deterministic in-process congestion ratio is identical per seed.
func TestBaselineSetsAgree(t *testing.T) {
	bm := readBenchmark(t)
	dirs, _ := filepath.Glob("results/*")
	if len(dirs) == 0 {
		t.Fatal("no baseline under results/")
	}
	for _, dir := range dirs {
		sets := [2]map[string]map[string][]float64{}
		ratios := [2]map[string]float64{{}, {}}
		for i, set := range []string{"a", "b"} {
			sets[i] = map[string]map[string][]float64{}
			f, err := os.Open(filepath.Join(dir, set+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			sc.Buffer(nil, 1<<20)
			runs := 0
			for sc.Scan() {
				var line struct {
					Host struct {
						Workload string `json:"workload"`
						Seed     int64  `json:"seed"`
					} `json:"host"`
					Result result `json:"result"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("%s: %v", f.Name(), err)
				}
				w := line.Host.Workload
				if !line.Result.Correct || line.Result.Failed != 0 {
					t.Errorf("%s: %s seed %d: correct %v, failed %d", f.Name(), w, line.Host.Seed, line.Result.Correct, line.Result.Failed)
				}
				if sets[i][w] == nil {
					sets[i][w] = map[string][]float64{}
				}
				for k, v := range line.Result.Metrics {
					sets[i][w][k] = append(sets[i][w][k], v.Value)
				}
				if strings.HasPrefix(w, "ingest-") {
					ratios[i][fmt.Sprintf("%s seed %d", w, line.Host.Seed)] = line.Result.Metrics["congestion_ratio"].Value
				}
				runs++
			}
			f.Close()
			if runs < 5*len(bm.Workloads) {
				t.Errorf("%s: %d runs, want at least 5 per workload", f.Name(), runs)
			}
		}
		for w := range sets[0] {
			for _, m := range bm.EndToEnd {
				a, b := median(sets[0][w][m.Name]), median(sets[1][w][m.Name])
				if d := math.Abs(a-b) / min(a, b); !(d < m.Bound) {
					t.Errorf("%s: %s %s: set medians %v and %v differ by %.3f, bound %v", dir, w, m.Name, a, b, d, m.Bound)
				}
			}
		}
		for k, v := range ratios[0] {
			if ratios[1][k] != v {
				t.Errorf("%s: %s congestion_ratio %v in set a, %v in set b", dir, k, v, ratios[1][k])
			}
		}
	}
}

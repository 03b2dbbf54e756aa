// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation sets up one workload from a seed, measures
// it for a fixed time, checks every answer, and prints one JSON result
// line. See DESIGN.md in this directory; run it through run.sh:
//
//	bash perfbench/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one invocation's settings. The program under test sees only
// what the workload generates from seed.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // tiny inputs, for the smoke test
	workdir  string
	threads  int
}

// instance is one set-up copy of a workload: its graphs, Systems and
// servers, ready to take operations.
type instance interface {
	// prepare computes the reference answers the run is checked
	// against. It is not part of set-up time.
	prepare() error
	// run drives the workload's operations untraced until d has passed,
	// recording each one. Workloads behind the HTTP front door also
	// return what the responses said about it.
	run(d time.Duration, rec *recorder) *doorStats
	// replay re-executes operations through the layers' entry points
	// under t until d has passed, checking their answers into rec.
	// Workloads that bypass the front door also replay each operation
	// through an in-process server handler and return its stats.
	replay(d time.Duration, t *tracer, rec *recorder) (*doorStats, error)
	close()
}

type workload struct {
	name  string
	setup func(c *config) (instance, error)
}

var workloads = []workload{
	{"census-cold", setupCensus},
	{"mine-warm", setupMine},
	{"serve-mixed", setupServe},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	c := &config{threads: runtime.NumCPU()}
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload name")
	flag.Int64Var(&c.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&c.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.workdir, "workdir", ".bench_build/work", "scratch directory for graph files and span dumps")
	flag.Parse()
	c.trace = traceFlag != 0
	res, err := measure(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// measure sets the workload up several times (set-up time is the
// median), computes its reference answers, then measures it: untraced
// for the whole run, or, traced, half untraced and half replayed.
func measure(c *config) (*result, error) {
	w, err := lookup(c.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	inst, setupS, err := setUp(c, w)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference answers: %w", w.name, err)
	}
	// The measured peak starts here, not at the set-ups and reference
	// computations above.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && !c.trace {
		fmt.Fprintln(os.Stderr, "perfbench: peak_rss_mb includes set-up:", err)
	}

	total := time.Duration(c.seconds * float64(time.Second))
	untraced := total
	if c.trace {
		untraced = total / 2
	}
	rec := &recorder{}
	before := takeCounters(c.threads)
	start := time.Now()
	door := inst.run(untraced, rec)
	elapsed := time.Since(start)
	d := delta{before, takeCounters(c.threads)}

	res := &result{Metrics: map[string]metric{}}
	good := float64(rec.attempted - rec.failed)
	opsPerS := good / elapsed.Seconds()
	if !c.trace {
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{quantile(rec.latMS, 0.50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{quantile(rec.latMS, 0.90), "ms"}
		res.Metrics["latency_p99_ms"] = metric{quantile(rec.latMS, 0.99), "ms"}
		res.Metrics["ok_frac"] = metric{good / float64(max(rec.attempted, 1)), "frac"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		t := newTracer()
		replayRec := &recorder{}
		rdoor, err := inst.replay(total-untraced, t, replayRec)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		if door == nil {
			door = rdoor
		}
		layerMetrics(res.Metrics, d, t, door, rec)
		path := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-%d.json", w.name, c.seed))
		if err := t.dump(path, w.name, c.seed); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
		rec.attempted += replayRec.attempted
		rec.failed += replayRec.failed
		rec.errs = append(rec.errs, replayRec.errs...)
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.attempted > 0 && rec.failed == 0
	for _, e := range rec.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	return res, nil
}

// setUp builds the workload at least three times, and keeps going while
// the set-ups are short, so set-up time is a median of several; the
// last instance is kept.
func setUp(c *config, w workload) (instance, float64, error) {
	var times []float64
	var spent time.Duration
	for {
		start := time.Now()
		inst, err := w.setup(c)
		d := time.Since(start)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, d.Seconds())
		spent += d
		if len(times) >= 3 && (spent > 300*time.Millisecond || len(times) >= 20000) {
			return inst, median(times), nil
		}
		inst.close()
	}
}

// layerMetrics fills the per-layer metrics of a traced run. Call times
// come from the replay (median of one call to the entry point); work
// counts, balance, cache and batch figures come from the counters the
// program exports, over the untraced half.
func layerMetrics(m map[string]metric, d delta, t *tracer, door *doorStats, rec *recorder) {
	ops := float64(max(rec.attempted, 1))
	perCall := func(name, layer string) { m[name] = metric{t.perCall(layer), "s"} }
	perCall("graph.build_s", "graph.build")
	perCall("graph.slab_write_s", "graph.slab_write")
	perCall("graph.open_mapped_s", "graph.open_mapped")
	perCall("sampling.profile_s", "sampling.profile")
	m["pattern.canonical_us"] = metric{t.perCall("pattern.canonical") * 1e6, "us"}
	m["pattern.canonical_calls"] = metric{t.perOp("pattern.canonical_calls"), "count"}
	perCall("decomp.rewrite_s", "decomp.rewrite")
	m["decomp.rewrite_needs"] = metric{ratio(t.counts["decomp.rewrite_needs"], t.counts["decomp.rewrites"]), "count"}
	perCall("core.search_s", "core.search")
	perCall("core.enumerate_s", "core.enumerate")
	perCall("cost.rank_s", "cost.rank")
	m["core.candidates"] = metric{ratio(t.counts["core.candidates"], t.counts["core.searches"]), "count"}
	perCall("ast.lower_s", "ast.lower")
	perCall("cost.estimate_s", "cost.estimate")

	execS := d.counter("engine.exec_ns") / 1e9
	instr := d.counter("engine.instructions")
	m["engine.exec_s"] = metric{execS / ops, "s"}
	m["engine.instructions"] = metric{instr / ops, "count"}
	m["engine.insn_per_s"] = metric{ratio(instr, execS), "1/s"}
	m["engine.balance"] = metric{d.balance(), "ratio"}
	m["engine.steals"] = metric{d.counter("engine.steals") / ops, "count"}
	elems, bitmapShare := d.kernelElems()
	m["vset.kernel_elems"] = metric{elems / ops, "count"}
	m["vset.bitmap_share"] = metric{bitmapShare, "frac"}

	hits, misses := d.counter("plancache.hits"), d.counter("plancache.misses")
	m["system.plancache_hit_rate"] = metric{ratio(hits, hits+misses), "frac"}
	m["batch.subqueries"] = metric{d.counter("engine.batch.subqueries") / ops, "count"}
	m["batch.shared_hits"] = metric{d.counter("engine.batch.shared_hits") / ops, "count"}
	var latSum float64
	for _, l := range rec.latMS {
		latSum += l
	}
	opWall := latSum / 1e3 / ops
	m["system.unattributed_frac"] = metric{1 - ratio(t.layerSecondsPerOp(), opWall), "frac"}

	door.fill(m)
	m["runtime.alloc_mb_per_op"] = metric{d.allocMB() / ops, "MB"}
	m["runtime.gc_cpu_frac"] = metric{d.gcCPUFrac(), "frac"}
	m["trace_overhead_frac"] = metric{t.overhead(), "frac"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// doorStats summarizes requests through the server front door. A hit
// is a reply that executed nothing (see queryResp.hit); rewritten counts
// the /query replies composed by a rewrite from cached counts, a subset
// of the hits.
type doorStats struct {
	hitMS, missMS []float64
	requests      int
	hits          int
	rewritten     int
	refused       int
	queueWaitNS   float64
	admitted      float64
}

func (s *doorStats) fill(m map[string]metric) {
	if s == nil {
		s = &doorStats{}
	}
	req := float64(max(s.requests, 1))
	m["server.hit_ms_p50"] = metric{median(s.hitMS), "ms"}
	m["server.miss_ms_p50"] = metric{median(s.missMS), "ms"}
	m["server.cache_hit_frac"] = metric{float64(s.hits) / req, "frac"}
	m["server.rewrite_frac"] = metric{float64(s.rewritten) / req, "frac"}
	m["server.queue_wait_ms"] = metric{ratio(s.queueWaitNS, s.admitted) / 1e6, "ms"}
	m["server.refused_frac"] = metric{float64(s.refused) / req, "frac"}
}

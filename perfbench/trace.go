package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced replay. Spans of one
// operation share Op; Parent is the ID of the enclosing span (0 for an
// operation's root and for replay set-up work, which has Op 0).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the replay's calls into each layer's entry point. It
// keeps every span in memory (written out by dump when the run ends),
// per-call durations by layer, counts, and for every replayed operation
// the time it spent inside layer calls. Each operation is also
// replayed with the tracer off (see pair): its calls then run untimed
// and only its wall time is kept, so the replay's cost with and without
// tracing can be compared. The replay is sequential, so the tracer
// needs no lock.
type tracer struct {
	base    time.Time
	spans   []span
	dropped int
	op      int
	opSpan  int
	inOp    bool
	off     bool
	opBegin time.Time
	inLayer time.Duration

	calls    map[string][]time.Duration
	counts   map[string]float64
	opLayers []time.Duration
	// opWall holds the wall time of every replayed operation, traced
	// ([1]) and untraced ([0]).
	opWall [2][]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		base:   time.Now(),
		calls:  map[string][]time.Duration{},
		counts: map[string]float64{},
	}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// maxSpans bounds the spans kept for the dump (serve-mixed replays
// hundreds of thousands of cache hits a run); later ones are counted.
const maxSpans = 200_000

// add records a span and returns its ID, or 0 once the dump is full.
func (t *tracer) add(parent int, name string, start time.Time, d time.Duration) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: t.ns(start), End: t.ns(start.Add(d))})
	return id
}

// beginOp opens the root span of the next replayed operation, or, with
// traced false, starts an operation replayed with the tracer off.
func (t *tracer) beginOp(kind string, traced bool) {
	t.off = !traced
	t.opBegin = time.Now()
	if t.off {
		return
	}
	t.op++
	t.inLayer = 0
	t.inOp = true
	t.opSpan = t.add(0, "op:"+kind, t.opBegin, 0)
}

// endOp closes the current operation's root span and records its wall
// time; it turns the tracer back on.
func (t *tracer) endOp() {
	wall := time.Since(t.opBegin)
	if t.off {
		t.opWall[0] = append(t.opWall[0], wall)
		t.off = false
		return
	}
	t.opWall[1] = append(t.opWall[1], wall)
	if t.opSpan != 0 {
		t.spans[t.opSpan-1].End = t.ns(t.opBegin.Add(wall))
	}
	t.opLayers = append(t.opLayers, t.inLayer)
	t.opSpan, t.inOp = 0, false
}

// call runs f as one call into the named layer entry point, recording
// its span under the current operation (or as set-up work outside any
// operation) and its duration. It returns the span ID, for children.
func (t *tracer) call(name string, f func()) int {
	if t.off {
		f()
		return 0
	}
	start := time.Now()
	f()
	d := time.Since(start)
	t.calls[name] = append(t.calls[name], d)
	if t.inOp {
		t.inLayer += d
	}
	return t.add(t.opSpan, name, start, d)
}

// child records a sub-phase of an already recorded call (the search's
// enumerate/rank split), which the layer reports itself.
func (t *tracer) child(parent int, name string, offset, d time.Duration) {
	if t.off {
		return
	}
	t.calls[name] = append(t.calls[name], d)
	if parent == 0 {
		t.dropped++
		return
	}
	start := t.base.Add(time.Duration(t.spans[parent-1].Start) + offset)
	t.add(parent, name, start, d)
}

func (t *tracer) count(name string, v float64) {
	if !t.off {
		t.counts[name] += v
	}
}

// perCall is the median duration of one call to the named entry point,
// in seconds.
func (t *tracer) perCall(name string) float64 { return median(seconds(t.calls[name])) }

func (t *tracer) ops() int { return len(t.opLayers) }

// perOp is a count averaged over the replayed operations.
func (t *tracer) perOp(name string) float64 {
	if t.ops() == 0 {
		return 0
	}
	return t.counts[name] / float64(t.ops())
}

// layerSecondsPerOp is the mean time per replayed operation spent
// inside layer calls.
func (t *tracer) layerSecondsPerOp() float64 {
	var sum time.Duration
	for _, d := range t.opLayers {
		sum += d
	}
	if len(t.opLayers) == 0 {
		return 0
	}
	return sum.Seconds() / float64(len(t.opLayers))
}

// pair replays one operation twice, once with the tracer off and once
// on, the order alternating with i. restore, when non-nil, is called
// between the two runs to undo the first run's effect on the replay's
// state, so both runs do the same work.
func (t *tracer) pair(i int, kind string, op func() error, restore func()) error {
	for j := 0; j < 2; j++ {
		if j == 1 && restore != nil {
			restore()
		}
		t.beginOp(kind, (i+j)%2 == 1)
		err := op()
		t.endOp()
		if err != nil {
			return err
		}
	}
	return nil
}

// overhead is the share of replay throughput tracing costs:
// 1 − traced ops/s ÷ untraced ops/s, each from the replayed operations'
// own wall time (pair runs the same operations both ways).
func (t *tracer) overhead() float64 {
	rate := func(ws []time.Duration) float64 {
		var sum time.Duration
		for _, w := range ws {
			sum += w
		}
		return ratio(float64(len(ws)), sum.Seconds())
	}
	untraced := rate(t.opWall[0])
	if untraced == 0 {
		return 0
	}
	return 1 - rate(t.opWall[1])/untraced
}

// dump writes every recorded span as JSON.
func (t *tracer) dump(path, workload string, seed int64) error {
	out := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.dropped, t.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

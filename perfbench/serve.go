package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"decomine"
	"decomine/internal/baseline"
	"decomine/internal/graph"
	"decomine/internal/pattern"
	"decomine/internal/server"
)

// serve-mixed: the server front door on a loopback listener, driven by
// one closed-loop client per tenant. Each tenant follows its own seeded
// script of edge-induced, vertex-induced (answered by rewrite) and
// all-different label-constrained queries with skewed popularity, plus
// occasional batches; one script bumps the graph's cache epoch at fixed
// points, the write that invalidates cached answers. The graph is a
// labeled R-MAT written as a slab file and served memory-mapped.
type serveInst struct {
	c       *config
	path    string
	mapped  *decomine.Graph
	sys     *decomine.System
	hs      *http.Server
	done    chan struct{}
	base    string
	scripts [][]serveReq
	want    map[string]int64
	// served logs the requests of the last untraced run in the order
	// they completed, as (tenant, script index); replay follows it.
	served [][2]int
}

// serveReq is one scripted request. keys name its answers in the
// reference table ("ei|", "vi|" or "alldiff|" plus the pattern
// spelling); a batch has one key per member, an epoch bump none.
type serveReq struct {
	kind string
	q    queryReq
	keys []string
}

const (
	serveEdgeFactor = 8
	serveLabels     = 6
	serveTenants    = 2
)

// serveWindows are the tenants' window lengths: each tenant bumps the
// epoch once per window of its own requests. Tenant 0 waits on the heavy
// requests and runs far fewer requests, hence its shorter window.
var serveWindows = [serveTenants]int{300, 800}

// serveHeavyEvery spaces tenant 0's heavy requests (every 4th window),
// keeping them well under 1% of requests so the p99 latency falls
// inside the cheap (3- and 4-vertex) misses rather than at the border
// between the two.
const serveHeavyEvery = 4

// serveFive are the 5-vertex patterns of the heavy requests (a cycle,
// the house, the clique); the rest of the catalog is every connected 3-
// and 4-vertex pattern.
var serveFive = []string{"0-1,1-2,2-3,3-4,4-0", "0-1,1-2,2-3,3-0,2-4,3-4", "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"}

// Requests the vertex-induced identity check reads.
const (
	keyChain3   = "ei|0-1,1-2"
	keyTriangle = "ei|0-1,0-2,1-2"
	keyChain3VI = "vi|0-1,1-2"
)

func serveScale(c *config) (scale, scriptLen int) {
	if c.tiny {
		return 6, 600
	}
	return 8, 6000
}

// serveInput generates the serving graph: R-MAT edges, and labels
// stratified by degree — vertices ranked by degree, each run of
// serveLabels consecutive ranks taking every label once in a seeded
// order — so hubs carry every label whatever the seed.
func serveInput(c *config) (n int, edges [][2]uint32, labels []uint32) {
	scale, _ := serveScale(c)
	g := graph.RMAT(scale, serveEdgeFactor, c.seed)
	n = g.NumVertices()
	g.Edges(func(u, v uint32) { edges = append(edges, [2]uint32{u, v}) })
	rng := rand.New(rand.NewSource(c.seed))
	order := rng.Perm(n)
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(uint32(order[i])) > g.Degree(uint32(order[j])) })
	labels = make([]uint32, n)
	for start := 0; start < n; start += serveLabels {
		perm := rng.Perm(serveLabels)
		for i := start; i < n && i < start+serveLabels; i++ {
			labels[order[i]] = uint32(perm[i-start])
		}
	}
	return n, edges, labels
}

func serveGraph(c *config) (*decomine.Graph, error) {
	return decomine.NewLabeledGraph(serveInput(c))
}

func serveInternalGraph(c *config) *graph.Graph {
	n, edges, labels := serveInput(c)
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.SetLabels(labels).Build()
	if err != nil {
		panic(err) // serveGraph built the same input without error first
	}
	return g
}

// serveScripts generates each tenant's request script, long enough
// that a run does not often repeat it. Each tenant's script is cut into
// windows (serveWindows), each ending with an epoch bump. Every
// serveHeavyEvery-th window of tenant 0 opens with the same heavy requests on the 5-vertex patterns — the
// edge-induced and all-different counts of each, then the
// vertex-induced count of one, in rotation — which miss the cache and
// set the latency tail. All other requests draw 3- and 4-vertex
// patterns with Zipf popularity (the seed ranks them within a size):
// edge-induced 55%, vertex-induced 30%, all-different 10%, and a batch
// of three 5%.
func serveScripts(seed int64, length int) [][]serveReq {
	rng := rand.New(rand.NewSource(seed))
	var ranked []string
	for _, group := range [][]string{spellings(3), spellings(4)} {
		for _, i := range rng.Perm(len(group)) {
			ranked = append(ranked, group[i])
		}
	}
	var cum []float64
	total := 0.0
	for r := range ranked {
		total += 1 / float64(r+1)
		cum = append(cum, total)
	}
	pick := func(tr *rand.Rand) string {
		x := tr.Float64() * total
		for r, c := range cum {
			if x < c {
				return ranked[r]
			}
		}
		return ranked[len(ranked)-1]
	}
	single := func(kind, p string) serveReq {
		q := queryReq{Pattern: p, Induced: kind == "vi"}
		if kind == "alldiff" {
			n := pattern.MustParse(p).NumVertices()
			verts := make([]int, n)
			for i := range verts {
				verts[i] = i
			}
			q.Constraints = []queryCons{{Kind: "all-different", Vertices: verts}}
		}
		return serveReq{kind: kind, q: q, keys: []string{kind + "|" + p}}
	}
	heavy := func(window int) []serveReq {
		var out []serveReq
		for _, kind := range []string{"ei", "alldiff"} {
			for _, p := range serveFive {
				out = append(out, single(kind, p))
			}
		}
		return append(out, single("vi", serveFive[window%len(serveFive)]))
	}
	scripts := make([][]serveReq, serveTenants)
	for tenant := range scripts {
		tr := rand.New(rand.NewSource(seed*1009 + int64(tenant) + 1))
		var s []serveReq
		if tenant == 0 {
			s = append(s, single("ei", "0-1,1-2"), single("ei", "0-1,0-2,1-2"), single("vi", "0-1,1-2"))
		}
		size := serveWindows[tenant]
		for window := 0; len(s) < length; window++ {
			end := len(s) + size
			if tenant == 0 && window%serveHeavyEvery == 0 {
				s = append(s, heavy(window/serveHeavyEvery)...)
			}
			for len(s) < end-1 {
				switch x := tr.Float64(); {
				case x < 0.55:
					s = append(s, single("ei", pick(tr)))
				case x < 0.85:
					s = append(s, single("vi", pick(tr)))
				case x < 0.95:
					s = append(s, single("alldiff", pick(tr)))
				default:
					kind := "ei"
					if tr.Intn(2) == 0 {
						kind = "vi"
					}
					b := serveReq{kind: "batch", q: queryReq{Induced: kind == "vi"}}
					for i := 0; i < 3; i++ {
						p := pick(tr)
						b.q.Patterns = append(b.q.Patterns, p)
						b.keys = append(b.keys, kind+"|"+p)
					}
					s = append(s, b)
				}
			}
			s = append(s, serveReq{kind: "epoch"})
		}
		scripts[tenant] = s
	}
	return scripts
}

func spellings(k int) []string {
	var out []string
	for _, p := range pattern.ConnectedPatterns(k) {
		out = append(out, p.String())
	}
	return out
}

// catalog lists every pattern spelling the scripts can ask for.
func catalog() []string {
	return append(append(spellings(3), spellings(4)...), serveFive...)
}

// setupServe writes the graph as a slab file, opens it mapped, warms the
// System's profile and every catalog plan (edge-induced, constrained,
// and the edge-induced needs of the vertex-induced rewrites), and
// starts the server on a loopback listener.
func setupServe(c *config) (si instance, err error) {
	_, scriptLen := serveScale(c)
	s := &serveInst{c: c, scripts: serveScripts(c.seed, scriptLen)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	f, err := os.CreateTemp(c.workdir, "serve-*.slab")
	if err != nil {
		return nil, err
	}
	s.path = f.Name()
	f.Close()
	g, err := serveGraph(c)
	if err != nil {
		return nil, err
	}
	if err := g.WriteSlabFile(s.path); err != nil {
		return nil, err
	}
	if s.mapped, err = decomine.OpenMappedGraph(s.path); err != nil {
		return nil, err
	}
	s.sys = decomine.NewSystem(s.mapped, decomine.Options{Threads: c.threads, Seed: c.seed})
	for _, spelling := range catalog() {
		p := decomine.MustParsePattern(spelling)
		plans := []*decomine.Pattern{p}
		for _, q := range pattern.ConversionPlan(p.Raw()) {
			plans = append(plans, decomine.RawPattern(q))
		}
		for _, q := range plans {
			if _, err := s.sys.EstimateCost(q, decomine.QueryOpts{}); err != nil {
				return nil, err
			}
		}
		if _, err := s.sys.EstimateCost(p, decomine.QueryOpts{Constraints: allDifferent(p)}); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Config{Systems: map[string]*decomine.System{"g": s.sys}, MaxConcurrent: c.threads})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func allDifferent(p *decomine.Pattern) []decomine.LabelConstraint {
	verts := make([]int, p.NumVertices())
	for i := range verts {
		verts[i] = i
	}
	return []decomine.LabelConstraint{{Kind: decomine.AllDifferentLabels, Vertices: verts}}
}

// prepare computes every scripted answer. Vertex-induced counts of 3-
// and 4-vertex patterns come from the pattern-oblivious census, which
// shares no planner, rewrite or VM code; the others come from the
// library on a separate System over the same graph held on the heap, so
// the served counts are also checked across storage backings. The
// census and the library must then agree on vi(chain-3) =
// ei(chain-3) − 3·ei(triangle).
func (s *serveInst) prepare() error {
	g, err := serveGraph(s.c)
	if err != nil {
		return err
	}
	lib := decomine.NewSystem(g, decomine.Options{Threads: s.c.threads, Seed: s.c.seed})
	defer lib.Close()
	census := map[int]map[pattern.Code]int64{}
	s.want = map[string]int64{}
	for _, script := range s.scripts {
		for _, r := range script {
			for _, key := range r.keys {
				if _, ok := s.want[key]; ok {
					continue
				}
				kind, spelling, _ := strings.Cut(key, "|")
				p := decomine.MustParsePattern(spelling)
				var n int64
				var err error
				switch k := p.NumVertices(); {
				case kind == "vi" && k <= 4:
					if census[k] == nil {
						census[k] = baseline.ObliviousMotifCensus(serveInternalGraph(s.c), k)
					}
					n = census[k][p.Raw().Canonical()]
				case kind == "vi":
					n, err = lib.GetPatternCountVertexInduced(p)
				case kind == "ei":
					n, err = lib.GetPatternCount(p)
				default:
					n, err = lib.CountWithConstraints(p, allDifferent(p))
				}
				if err != nil {
					return fmt.Errorf("library %s: %w", key, err)
				}
				s.want[key] = n
			}
		}
	}
	if s.want[keyChain3VI] != s.want[keyChain3]-3*s.want[keyTriangle] {
		return fmt.Errorf("census vi(chain-3)=%d, library ei(chain-3)-3*ei(triangle)=%d",
			s.want[keyChain3VI], s.want[keyChain3]-3*s.want[keyTriangle])
	}
	return nil
}

// replyCounts lists a reply's answers: one per batch member, or one.
func replyCounts(r serveReq, resp *queryResp) []int64 {
	if r.kind != "batch" {
		return []int64{resp.Count}
	}
	var got []int64
	for _, c := range resp.Counts {
		got = append(got, c.Count)
	}
	return got
}

// checkAnswers checks the answers to one request against the reference
// table. Batch members are checked against the same keys as single
// queries, and repeats against the same key as the first answer, so
// batch members equal single queries and repeats equal the first answer
// whenever this passes.
func checkAnswers(want map[string]int64, r serveReq, got []int64) error {
	if len(got) != len(r.keys) {
		return fmt.Errorf("%s: %d answers for %d patterns", r.kind, len(got), len(r.keys))
	}
	for i, key := range r.keys {
		if got[i] != want[key] {
			return fmt.Errorf("%s %s: served %d, reference %d", r.kind, key, got[i], want[key])
		}
	}
	return nil
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

func (s *serveInst) run(d time.Duration, rec *recorder) *doorStats {
	var names []string
	for i := range s.scripts {
		names = append(names, tenantName(i))
	}
	wait0, adm0 := tenantWait(names...)
	deadline := time.Now().Add(d)
	stats := make([]doorStats, len(s.scripts))
	var mu sync.Mutex
	s.served = nil
	var wg sync.WaitGroup
	for i := range s.scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			send := httpSender(client, s.base)
			script := s.scripts[i]
			for n := 0; time.Now().Before(deadline); n++ {
				k := n % len(script)
				r := script[k]
				start := time.Now()
				var err error
				if r.kind == "epoch" {
					err = bumpEpoch(send, names[i])
				} else {
					var resp *queryResp
					if resp, err = post(send, names[i], r.q, &stats[i]); err == nil {
						err = checkAnswers(s.want, r, replyCounts(r, resp))
					}
				}
				rec.op(time.Since(start), err)
				mu.Lock()
				s.served = append(s.served, [2]int{i, k})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	out := &doorStats{}
	for _, st := range stats {
		out.hitMS = append(out.hitMS, st.hitMS...)
		out.missMS = append(out.missMS, st.missMS...)
		out.requests += st.requests
		out.hits += st.hits
		out.rewritten += st.rewritten
		out.refused += st.refused
	}
	wait1, adm1 := tenantWait(names...)
	out.queueWaitNS, out.admitted = wait1-wait0, adm1-adm0
	return out
}

// replay answers the requests of the untraced run, in the order they
// were served, each with the tracer off and on from the same state,
// through the layers: canonical code (the cache key), the
// vertex-induced rewrite, admission pricing and execution of whatever
// the emulated result cache misses, on the same graph written as a slab
// file and opened mapped through the storage layer.
func (s *serveInst) replay(d time.Duration, t *tracer, rec *recorder) (*doorStats, error) {
	if len(s.served) == 0 {
		return nil, errors.New("no requests were served to replay")
	}
	_, mapped, err := storageProbe(t, s.c.workdir, func() *graph.Graph { return serveInternalGraph(s.c) })
	if err != nil {
		return nil, err
	}
	defer mapped.Close()
	r := newReplayer(t, mapped, s.c.threads, s.c.seed)
	defer r.close()
	r.buildModel()
	parsed := map[string]*pattern.Pattern{}
	for _, script := range s.scripts {
		for _, req := range script {
			for _, key := range req.keys {
				_, spelling, _ := strings.Cut(key, "|")
				parsed[spelling] = pattern.MustParse(spelling)
			}
		}
	}
	for _, spelling := range catalog() {
		p := pattern.MustParse(spelling)
		if _, err := r.plan(p, r.canonical(p), "", nil); err != nil {
			return nil, err
		}
		for _, q := range pattern.ConversionPlan(p) {
			if _, err := r.plan(q, r.canonical(q), "", nil); err != nil {
				return nil, err
			}
		}
		if _, err := r.allDifferentPlan(p, r.canonical(p)); err != nil {
			return nil, err
		}
	}
	r.admit = func(p *pattern.Pattern) {
		t.call("cost.estimate", func() { s.sys.EstimateCost(decomine.RawPattern(p), decomine.QueryOpts{}) })
	}

	r.memo = map[pattern.Code]int64{}
	cached := map[string]int64{}
	answer := func(key string) (int64, error) {
		kind, spelling, _ := strings.Cut(key, "|")
		p := parsed[spelling]
		code := r.canonical(p)
		ck := kind + "|" + string(code)
		if n, ok := cached[ck]; ok {
			return n, nil
		}
		var n int64
		var err error
		switch kind {
		case "ei":
			n, err = r.countEI(p, code)
		case "vi":
			n, err = r.countVI(p)
		default:
			n, err = r.countAllDifferent(p, code)
		}
		if err == nil {
			cached[ck] = n
		}
		return n, err
	}
	deadline := time.Now().Add(d)
	for n := 0; time.Now().Before(deadline); n++ {
		at := s.served[n%len(s.served)]
		req := s.scripts[at[0]][at[1]]
		var got []int64
		savedCached, savedMemo := maps.Clone(cached), maps.Clone(r.memo)
		err := t.pair(n, req.kind, func() error {
			got = got[:0]
			if req.kind == "epoch" {
				clear(cached)
				clear(r.memo)
			}
			for _, key := range req.keys {
				c, err := answer(key)
				if err != nil {
					return err
				}
				got = append(got, c)
			}
			return nil
		}, func() { cached, r.memo = savedCached, savedMemo })
		if err == nil && req.kind != "epoch" {
			err = checkAnswers(s.want, req, got)
		}
		rec.op(0, err)
	}
	return nil, nil
}

func (s *serveInst) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
	}
	if s.sys != nil {
		s.sys.Close()
	}
	if s.mapped != nil {
		s.mapped.Close()
	}
	if s.path != "" {
		os.Remove(s.path)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"decomine/internal/obs"
)

// queryReq is the body of POST /query and, with Patterns set, of
// POST /queries/batch.
type queryReq struct {
	Pattern     string      `json:"pattern,omitempty"`
	Patterns    []string    `json:"patterns,omitempty"`
	Induced     bool        `json:"induced,omitempty"`
	Constraints []queryCons `json:"constraints,omitempty"`
}

type queryCons struct {
	Kind     string `json:"kind"`
	Vertices []int  `json:"vertices"`
}

// queryResp holds the fields of /query and /queries/batch replies the
// benchmark checks.
type queryResp struct {
	Count     int64 `json:"count"`
	Cached    bool  `json:"cached"`
	Rewritten bool  `json:"rewritten"`
	Executed  int   `json:"executed_subqueries"`
	Counts    []struct {
		Count int64 `json:"count"`
	} `json:"counts"`
	Batch struct {
		Subqueries int   `json:"subqueries"`
		CacheHits  int64 `json:"cache_hits"`
	} `json:"batch"`
}

// hit reports whether the server answered without executing anything:
// from the result cache, or, for /query, by a rewrite composed wholly
// from cached counts.
func (r *queryResp) hit(batch bool) bool {
	if batch {
		return r.Batch.Subqueries == 0
	}
	return r.Executed == 0
}

// sender posts one request and returns the HTTP status and body.
type sender func(path, tenant string, body []byte) (int, []byte, error)

// httpSender posts over a real connection (one keep-alive connection
// per client).
func httpSender(client *http.Client, base string) sender {
	return func(path, tenant string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// handlerSender calls the server handler in process, with no socket.
func handlerSender(h http.Handler) sender {
	return func(path, tenant string, body []byte) (int, []byte, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw.Code, rw.Body.Bytes(), nil
	}
}

// post sends one counting request and decodes the reply; any status
// other than 200 is an error, and a 429 is also counted as refused.
func post(send sender, tenant string, q queryReq, st *doorStats) (*queryResp, error) {
	path := "/query"
	if len(q.Patterns) > 0 {
		path = "/queries/batch"
	}
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	code, b, err := send(path, tenant, body)
	d := time.Since(start)
	st.requests++
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		if code == http.StatusTooManyRequests {
			st.refused++
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", path, body, code, bytes.TrimSpace(b))
	}
	var r queryResp
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: bad reply: %w", path, err)
	}
	ms := float64(d) / 1e6
	if r.hit(len(q.Patterns) > 0) {
		st.hits++
		st.hitMS = append(st.hitMS, ms)
	} else {
		st.missMS = append(st.missMS, ms)
	}
	if r.Rewritten {
		st.rewritten++
	}
	return &r, nil
}

// bumpEpoch invalidates the server's cached results for graph g.
func bumpEpoch(send sender, tenant string) error {
	code, b, err := send("/graphs/g/epoch", tenant, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("epoch bump: status %d: %s", code, bytes.TrimSpace(b))
	}
	return nil
}

// tenantWait reads the server's per-tenant admission counters: total
// queue wait and admitted queries.
func tenantWait(tenants ...string) (waitNS, admitted float64) {
	for _, t := range tenants {
		l := obs.Label{Key: "tenant", Value: t}
		waitNS += float64(obs.Default.LabeledCounter("server.tenant.queue_wait_ns", l).Load())
		admitted += float64(obs.Default.LabeledCounter("server.tenant.admitted", l).Load())
	}
	return waitNS, admitted
}

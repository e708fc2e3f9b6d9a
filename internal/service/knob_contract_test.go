package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestKnobContract pins the wire contract of the sparsification knobs as
// the equality classes they induce and the exact 400 texts they produce.
// Requests that land in one class of the cache key share a result line;
// one class of the family shares coarser-σ² reuse; one class of the
// session key shares a live maintainer. The key bytes themselves never
// leave the process, so they are not pinned — only which requests share
// a key.
func TestKnobContract(t *testing.T) {
	srv := NewServer(sessionTestConfig(nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Queue().Shutdown(ctx)
		_ = srv.sessions.Close(ctx)
	})
	h := srv.Handler()
	do := func(method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	if code, body := do(http.MethodPost, "/v1/graphs", `{"name":"g","spec":"grid:3x3","seed":1}`); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	reqs := []struct{ name, body string }{
		{"bare", `{"sigma2":50}`},
		{"spelled", `{"sigma2":50,"seed":1,"workers":0,"mode":"","incremental":false}`},
		{"zeros", `{"sigma2":50,"seed":0}`},
		{"negatives", `{"sigma2":50,"workers":-2}`},
		{"single", `{"sigma2":50,"mode":"single"}`},
		{"w1", `{"sigma2":50,"workers":1}`},
		{"w8", `{"sigma2":50,"workers":8}`},
		{"incremental", `{"sigma2":50,"incremental":true}`},
		{"sharded", `{"sigma2":50,"mode":"sharded"}`},
		{"sharded-w8", `{"sigma2":50,"mode":"sharded","workers":8}`},
		{"sharded-incremental", `{"sigma2":50,"mode":"sharded","incremental":true}`},
		{"multilevel", `{"sigma2":50,"mode":"multilevel"}`},
		{"multilevel-w8", `{"sigma2":50,"mode":"multilevel","workers":8}`},
		{"seed7", `{"sigma2":50,"seed":7}`},
		{"s100", `{"sigma2":100}`},
		{"s100-w8", `{"sigma2":100,"workers":8}`},
		{"s100-sharded", `{"sigma2":100,"mode":"sharded"}`},
		{"s100-multilevel", `{"sigma2":100,"mode":"multilevel"}`},
	}
	ps := make([]SparsifyParams, len(reqs))
	var canon strings.Builder
	for i, r := range reqs {
		dec := json.NewDecoder(strings.NewReader(r.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ps[i]); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := ps[i].Canon(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&canon, "%s %+v\n", r.name, ps[i])
	}
	const wantCanon = `bare {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:false}
spelled {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:false}
zeros {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:false}
negatives {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:false}
single {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:false}
w1 {SigmaSq:50 Seed:1 Workers:1 Mode: Incremental:false}
w8 {SigmaSq:50 Seed:1 Workers:8 Mode: Incremental:false}
incremental {SigmaSq:50 Seed:1 Workers:0 Mode: Incremental:true}
sharded {SigmaSq:50 Seed:1 Workers:0 Mode:sharded Incremental:false}
sharded-w8 {SigmaSq:50 Seed:1 Workers:8 Mode:sharded Incremental:false}
sharded-incremental {SigmaSq:50 Seed:1 Workers:0 Mode:sharded Incremental:true}
multilevel {SigmaSq:50 Seed:1 Workers:0 Mode:multilevel Incremental:false}
multilevel-w8 {SigmaSq:50 Seed:1 Workers:8 Mode:multilevel Incremental:false}
seed7 {SigmaSq:50 Seed:7 Workers:0 Mode: Incremental:false}
s100 {SigmaSq:100 Seed:1 Workers:0 Mode: Incremental:false}
s100-w8 {SigmaSq:100 Seed:1 Workers:8 Mode: Incremental:false}
s100-sharded {SigmaSq:100 Seed:1 Workers:0 Mode:sharded Incremental:false}
s100-multilevel {SigmaSq:100 Seed:1 Workers:0 Mode:multilevel Incremental:false}
`
	if got := canon.String(); got != wantCanon {
		t.Errorf("canonical forms:\n%s\nwant:\n%s", got, wantCanon)
	}

	// classes spells a partition of the requests: one line per class, in
	// order of first appearance, members joined by spaces.
	classes := func(idx []int, same func(a, b int) bool) string {
		var out strings.Builder
		done := make([]bool, len(idx))
		for i := range idx {
			if done[i] {
				continue
			}
			var names []string
			for j := i; j < len(idx); j++ {
				if !done[j] && same(idx[i], idx[j]) {
					done[j] = true
					names = append(names, reqs[idx[j]].name)
				}
			}
			out.WriteString(strings.Join(names, " ") + "\n")
		}
		return out.String()
	}
	all := make([]int, len(reqs))
	for i := range all {
		all[i] = i
	}
	const wantKey = `bare spelled zeros negatives single w1 w8 incremental
sharded sharded-w8 sharded-incremental
multilevel multilevel-w8
seed7
s100 s100-w8
s100-sharded
s100-multilevel
`
	if got := classes(all, func(a, b int) bool { return ps[a].key("h") == ps[b].key("h") }); got != wantKey {
		t.Errorf("cache key classes:\n%s\nwant:\n%s", got, wantKey)
	}
	const wantFamily = `bare spelled zeros negatives single w1 w8 incremental s100 s100-w8
sharded sharded-w8 sharded-incremental s100-sharded
multilevel multilevel-w8 s100-multilevel
seed7
`
	if got := classes(all, func(a, b int) bool { return ps[a].family("h") == ps[b].family("h") }); got != wantFamily {
		t.Errorf("family classes:\n%s\nwant:\n%s", got, wantFamily)
	}

	// Session classes, through the one route to a maintainer: make a's
	// session resident, then ask for b's. A request that pins multilevel
	// never reaches a session (Canon rejects it on incremental jobs and
	// streams), so it is left out.
	var sessionable []int
	for i, p := range ps {
		if p.Mode != "multilevel" {
			sessionable = append(sessionable, i)
		}
	}
	ctx := context.Background()
	sameSession := func(a, b int) bool {
		if _, _, err := srv.session(ctx, "g", &ps[a], originJob); err != nil {
			t.Fatal(err)
		}
		_, hit, err := srv.session(ctx, "g", &ps[b], originJob)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	const wantSession = `bare spelled zeros negatives single w1 w8 incremental
sharded sharded-w8 sharded-incremental
seed7
s100 s100-w8
s100-sharded
`
	if got := classes(sessionable, sameSession); got != wantSession {
		t.Errorf("session classes:\n%s\nwant:\n%s", got, wantSession)
	}

	// Every 400 a job body can draw from the decoder, Canon or canonMode.
	for _, c := range []struct{ body, want string }{
		{`{}`, `invalid sparsification parameters: similarity target σ² must be \u003e 1: got 0`},
		{`{"sigma2":1}`, `invalid sparsification parameters: similarity target σ² must be \u003e 1: got 1`},
		{`{"sigma2":-5}`, `invalid sparsification parameters: similarity target σ² must be \u003e 1: got -5`},
		{`{"sigma2":"50"}`, `bad JSON body: json: cannot unmarshal string into Go struct field submitRequest.SparsifyParams.sigma2 of type float64`},
		{`{"sigma2":50,"t":17}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"t":16,"r":1025}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"t":17,"r":1025,"workers":65}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"shards":4}`, `bad JSON body: json: unknown field \"shards\"`},
		{`{"sigma2":50,"mode":"sharded","shards":4}`, `bad JSON body: json: unknown field \"shards\"`},
		{`{"sigma2":50,"workers":65}`, `invalid sparsification parameters: worker count out of range: workers must be at most 64, got 65`},
		{`{"sigma2":50,"mode":"auto"}`, `invalid sparsification parameters: unknown execution mode: mode \"auto\" is a client-side policy; omit mode or request single, sharded or multilevel`},
		{`{"sigma2":50,"mode":"bogus"}`, `invalid sparsification parameters: unknown execution mode: \"bogus\" (want auto, single, sharded or multilevel)`},
		{`{"sigma2":50,"mode":"multilevel","incremental":true}`, `invalid sparsification parameters: incompatible options: mode multilevel does not compose with a session (incremental job or stream)`},
		{`{"sigma2":50,"shard":4}`, `bad JSON body: json: unknown field \"shard\"`},
		{`{"sigma2":50,"max_edges":500}`, `bad JSON body: json: unknown field \"max_edges\"`},
		{`{"sigma2":50,"t":2,"r":0,"seed":1,"workers":0,"mode":"","incremental":false}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"t":0,"seed":0}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"t":-3,"r":-1,"workers":-2}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"t":3}`, `bad JSON body: json: unknown field \"t\"`},
		{`{"sigma2":50,"r":8}`, `bad JSON body: json: unknown field \"r\"`},
		{`{"sigma2":100,"t":3}`, `bad JSON body: json: unknown field \"t\"`},
	} {
		body := `{"graph":"g",` + strings.TrimPrefix(c.body, "{")
		if c.body == `{}` {
			body = `{"graph":"g"}`
		}
		code, got := do(http.MethodPost, "/v1/jobs", body)
		if want := fmt.Sprintf("{\n  \"error\": \"%s\"\n}\n", c.want); code != http.StatusBadRequest || got != want {
			t.Errorf("job %s: %d %q, want 400 %q", c.body, code, got, want)
		}
	}

	// Every 400 the stream query can draw from the allow-list, the parse
	// or Canon.
	for _, c := range []struct{ query, want string }{
		{"", `invalid sparsification parameters: similarity target σ² must be \u003e 1: got 0`},
		{"?sigma2=", `invalid sparsification parameters: similarity target σ² must be \u003e 1: got 0`},
		{"?sigma2=Inf", `invalid sparsification parameters: similarity target σ² must be \u003e 1: got +Inf`},
		{"?sigma2=abc", `invalid sparsification parameters: query parameter \"sigma2\": strconv.ParseFloat: parsing \"abc\": invalid syntax`},
		{"?sigma2=50&t=x", `invalid sparsification parameters: unknown query parameter \"t\"`},
		{"?sigma2=50&r=1.5", `invalid sparsification parameters: unknown query parameter \"r\"`},
		{"?sigma2=50&shards=two", `invalid sparsification parameters: unknown query parameter \"shards\"`},
		{"?sigma2=50&workers=", ``},
		{"?sigma2=50&workers=9999999999999999999", `invalid sparsification parameters: query parameter \"workers\": strconv.Atoi: parsing \"9999999999999999999\": value out of range`},
		{"?sigma2=50&seed=-1", `invalid sparsification parameters: query parameter \"seed\": strconv.ParseUint: parsing \"-1\": invalid syntax`},
		{"?sigma2=50&workers=x&seed=y", `invalid sparsification parameters: query parameter \"workers\": strconv.Atoi: parsing \"x\": invalid syntax`},
		{"?sigma2=50&t=17", `invalid sparsification parameters: unknown query parameter \"t\"`},
		{"?sigma2=50&r=1025", `invalid sparsification parameters: unknown query parameter \"r\"`},
		{"?sigma2=50&shards=4", `invalid sparsification parameters: unknown query parameter \"shards\"`},
		{"?sigma2=50&workers=65", `invalid sparsification parameters: worker count out of range: workers must be at most 64, got 65`},
		{"?sigma2=50&mode=sharded", ``},
		{"?sigma2=50&mode=auto", `invalid sparsification parameters: unknown execution mode: mode \"auto\" is a client-side policy; omit mode or request single, sharded or multilevel`},
		{"?sigma2=50&mode=multilevel", `invalid sparsification parameters: incompatible options: mode multilevel does not compose with a session (incremental job or stream)`},
		{"?sigma2=50&incremental=true", `invalid sparsification parameters: unknown query parameter \"incremental\"`},
		{"?sigma2=50&shard=4&max_edges=9&tree=x", `invalid sparsification parameters: unknown query parameter \"max_edges, shard, tree\"`},
	} {
		code, got := do(http.MethodPost, "/v1/graphs/g/stream"+c.query, "")
		if c.want == "" {
			if code != http.StatusOK {
				t.Errorf("stream%s: %d %q, want 200", c.query, code, got)
			}
			continue
		}
		if want := fmt.Sprintf("{\n  \"error\": \"%s\"\n}\n", c.want); code != http.StatusBadRequest || got != want {
			t.Errorf("stream%s: %d %q, want 400 %q", c.query, code, got, want)
		}
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// startTestServer builds lsserve from the repository this module sits in
// and starts it with extra flags.
func startTestServer(t *testing.T, extra ...string) *Client {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "lsserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lsserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lsserve: %v\n%s", err, out)
	}
	srv, err := startServer(bin, filepath.Join(dir, "lsserve.log"), extra...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	cl := newClient(srv.Base, clients, time.Now())
	t.Cleanup(cl.close)
	return cl
}

func send(t *testing.T, cl *Client, u upload) {
	t.Helper()
	if _, err := u.send(cl); err != nil {
		t.Fatal(err)
	}
}

// exactCount asks the service for q's exact answer.
func exactCount(t *testing.T, cl *Client, q Query) *CountResp {
	t.Helper()
	body, err := json.Marshal(CountReq{SQL: q.SQL(), Params: q.Params(), Method: "srs", Budget: 0.1, Seed: 1, Exact: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := cl.call("count", http.MethodPost, "/v1/count", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var r CountResp
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if r.TrueCount == nil {
		t.Fatalf("%s: no true_count in exact answer", q)
	}
	return &r
}

// checkAgainstService compares the reference for q with the service's exact
// answer, per group for the grouped template.
func checkAgainstService(t *testing.T, cl *Client, tr *Truth, q Query) {
	t.Helper()
	r := exactCount(t, cl, q)
	if r.Objects != tr.Objects(q) || *r.TrueCount != tr.Count(q) {
		t.Errorf("%s: service |O|=%d count=%d, reference |O|=%d count=%d",
			q, r.Objects, *r.TrueCount, tr.Objects(q), tr.Count(q))
	}
	if q.Template != "grouped" {
		return
	}
	want := tr.SkybandByRegion(q.K)
	if len(r.Groups) != len(want) {
		t.Errorf("%s: %d groups, reference %d", q, len(r.Groups), len(want))
	}
	for _, g := range r.Groups {
		if g.TrueCount == nil || len(g.Key) != 1 {
			t.Fatalf("%s: group %v has no true_count or a multi-column key", q, g.Key)
		}
		if *g.TrueCount != want[g.Key[0]] {
			t.Errorf("%s: group %v true_count %d, reference %d", q, g.Key, *g.TrueCount, want[g.Key[0]])
		}
	}
}

func TestTruthMatchesServiceExact(t *testing.T) {
	d := GenData(3, 120, 100, 500, 100)
	tr := NewTruth(d)
	cl := startTestServer(t)
	send(t, cl, upload{"D", schemaD, csvD(d.D), false})
	send(t, cl, upload{"E", schemaE, csvE(d.E), false})
	send(t, cl, upload{"R", schemaR, csvR(d.R), false})
	for _, k := range []int{1, 2, 5, 12, 30, 200} {
		checkAgainstService(t, cl, tr, Query{Template: "skyband", K: k})
		checkAgainstService(t, cl, tr, Query{Template: "grouped", K: k})
	}
	for _, th := range []float64{0, 2.5, d.R[0].V, 9.99} {
		for _, m := range []int{1, 3, 6} {
			checkAgainstService(t, cl, tr, Query{Template: "exists", T: th, M: m})
		}
	}
}

// TestIngestModelMatchesService replays delta cycles into a durable live D
// and checks the generator's model after each against exact answers.
func TestIngestModelMatchesService(t *testing.T) {
	d := GenData(5, 120, 0, 0, 1)
	cl := startTestServer(t, "-data-dir", t.TempDir())
	send(t, cl, upload{"D", schemaD, csvD(d.D), true})
	g := newIngestGen(5, d)
	for range 4 {
		ops := g.cycle()
		out, _, err := cl.call("ingest", http.MethodPost, "/v1/ingest?name=D", "application/x-ndjson", ops[0].Delta)
		if err != nil {
			t.Fatal(err)
		}
		var ir IngestResp
		if err := json.Unmarshal(out, &ir); err != nil {
			t.Fatal(err)
		}
		if err := checkIngest(ops[0], &ir); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[1:] {
			if r := exactCount(t, cl, op.Query); r.Objects != op.Objects || *r.TrueCount != op.Truth {
				t.Errorf("%s: service |O|=%d count=%d, model |O|=%d count=%d",
					op.Query, r.Objects, *r.TrueCount, op.Objects, op.Truth)
			}
		}
		for _, k := range []int{3, 15} {
			checkAgainstService(t, cl, g.t, Query{Template: "grouped", K: k})
		}
	}
}

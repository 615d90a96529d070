package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the connection count of the closed and open loops: one per
// core of the 2-core machine the benchmark was sized on.
const clients = 2

// Rec is one measured operation.
type Rec struct {
	Op     Op
	Span   Span // client span of the HTTP call, with the count's latency
	Count  *CountResp
	Ingest *IngestResp
	Err    error // transport, status or answer-check failure
}

// Stats is the part of /v1/stats the benchmark reads.
type Stats struct {
	Metrics struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	} `json:"metrics"`
}

// Pass is one measured pass of a workload against one server.
type Pass struct {
	Setup   time.Duration
	Recs    []Rec
	Spans   []Span // uploads and stats scrapes; count and ingest spans live on Recs
	Elapsed time.Duration
	LagMS   []float64 // open loop: how late the generator woke for each request (0 when it was already late)

	Stats0, Stats1 Stats
	CPU            time.Duration // server CPU time during the measurement
	RSSMiB         float64
	DeltaBytes     int64 // NDJSON bytes sent to /v1/ingest
	WALGrowth      int64 // growth of the data directory during the measurement
}

// env is one set-up server with its client.
type env struct {
	srv     *Server
	cl      *Client
	dataDir string
	dash    *dashGen   // dashboard schedule, continued from the warm-up
	ingest  *ingestGen // ingest deltas, continued from the uploaded D
	pass    *Pass
}

// bench holds one invocation's inputs.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	bin      string // lsserve
	runDir   string
	data     *Data
	truth    *Truth
	runs     int   // servers started so far, for unique file names
	warm     []Rec // every set-up's warm-up counts, checked like measured ones
}

func (b *bench) nextPath(name string) string {
	b.runs++
	return filepath.Join(b.runDir, fmt.Sprintf("%s-%d", name, b.runs))
}

// upload is one dataset sent during set-up.
type upload struct {
	name, schema string
	body         []byte
	live         bool
}

// send uploads the dataset; a live one is keyed by its id column.
func (u upload) send(cl *Client) (Span, error) {
	q := url.Values{"name": {u.name}, "schema": {u.schema}}
	if u.live {
		q.Set("live", "1")
		q.Set("key", "id")
	}
	_, sp, err := cl.call("upload", http.MethodPost, "/v1/datasets?"+q.Encode(), "text/csv", u.body)
	return sp, err
}

// setup starts a server and brings it to the state the workload measures
// from: data uploaded and, for dashboard, the plan catalog warmed. The
// returned pass has Setup set to exec → ready.
func (b *bench) setup() (*env, error) {
	t0 := time.Now()
	var extra []string
	e := &env{pass: &Pass{}}
	if b.workload == "ingest" {
		e.dataDir = b.nextPath("data")
		if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
			return nil, err
		}
		extra = append(extra, "-data-dir", e.dataDir)
	}
	srv, err := startServer(b.bin, b.nextPath("lsserve")+".log", extra...)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	e.cl = newClient(srv.Base, clients, t0)
	fail := func(err error) (*env, error) { e.stop(); return nil, err }

	uploads := []upload{{"D", schemaD, csvD(b.data.D), b.workload == "ingest"}}
	if b.workload != "ingest" {
		uploads = append(uploads, upload{"E", schemaE, csvE(b.data.E), false}, upload{"R", schemaR, csvR(b.data.R), false})
	}
	for _, u := range uploads {
		sp, err := u.send(e.cl)
		e.pass.Spans = append(e.pass.Spans, sp)
		if err != nil {
			return fail(err)
		}
	}
	switch b.workload {
	case "dashboard":
		e.dash = newDashGen(b.seed, b.truth)
		for _, warm := range e.dash.warmup() {
			recs := make([]Rec, len(warm))
			var next atomic.Int64
			var wg sync.WaitGroup
			for range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1) - 1); i < len(warm); i = int(next.Add(1) - 1) {
						recs[i] = e.count(warm[i], false, time.Now())
					}
				}()
			}
			wg.Wait()
			b.warm = append(b.warm, recs...)
		}
	case "ingest":
		e.ingest = newIngestGen(b.seed, b.data)
	}
	e.pass.Setup = time.Since(t0)
	return e, nil
}

func (e *env) stop() {
	if e.cl != nil {
		e.cl.close()
	}
	e.srv.Stop()
}

// count sends one count and checks its answer. Its latency runs from
// `from`: the send in the closed loops, and in the open loop the due time
// or, when the connection was idle, the send.
func (e *env) count(op Op, explain bool, from time.Time) Rec {
	req := *op.Req
	req.Explain = explain
	body, err := json.Marshal(req)
	if err != nil {
		return Rec{Op: op, Err: err}
	}
	out, sp, err := e.cl.call("count", http.MethodPost, "/v1/count", "application/json", body)
	sp.LatMS = ms(time.Since(from))
	rec := Rec{Op: op, Span: sp, Err: err}
	if err != nil {
		return rec
	}
	var res CountResp
	if err := json.Unmarshal(out, &res); err != nil {
		rec.Err = fmt.Errorf("decode count response: %w", err)
		return rec
	}
	rec.Span.Server, res.Trace = res.Trace, nil
	rec.Count = &res
	rec.Err = checkCount(op, &res)
	return rec
}

// sendDelta posts one ingest delta and checks the acknowledgement.
func (e *env) sendDelta(op Op) Rec {
	out, sp, err := e.cl.call("ingest", http.MethodPost, "/v1/ingest?name=D", "application/x-ndjson", op.Delta)
	rec := Rec{Op: op, Span: sp, Err: err}
	e.pass.DeltaBytes += int64(len(op.Delta))
	if err != nil {
		return rec
	}
	var res IngestResp
	if err := json.Unmarshal(out, &res); err != nil {
		rec.Err = fmt.Errorf("decode ingest response: %w", err)
		return rec
	}
	rec.Ingest = &res
	rec.Err = checkIngest(op, &res)
	return rec
}

// measure runs the workload for b.seconds and fills the pass.
func (b *bench) measure(e *env, explain bool) error {
	p := e.pass
	sp, err := e.cl.getJSON("stats", "/v1/stats", &p.Stats0)
	p.Spans = append(p.Spans, sp)
	if err != nil {
		return err
	}
	cpu0, err := e.srv.CPUTime()
	if err != nil {
		return err
	}
	wal0 := dirBytes(e.dataDir)
	t0 := time.Now()
	switch b.workload {
	case "adhoc":
		b.closedLoop(e, explain, t0)
	case "dashboard":
		b.openLoop(e, explain, t0)
	case "ingest":
		b.ingestLoop(e, explain, t0)
	}
	p.Elapsed = time.Since(t0)
	if e.dataDir != "" {
		p.WALGrowth = dirBytes(e.dataDir) - wal0
	}
	cpu1, err := e.srv.CPUTime()
	if err != nil {
		return err
	}
	p.CPU = cpu1 - cpu0
	sp, err = e.cl.getJSON("stats", "/v1/stats", &p.Stats1)
	p.Spans = append(p.Spans, sp)
	if err != nil {
		return err
	}
	p.RSSMiB, err = e.srv.PeakRSSMiB()
	return err
}

// closedLoop: each client sends adhoc request i as soon as its previous
// answer arrives, until the run time is up.
func (b *bench) closedLoop(e *env, explain bool, t0 time.Time) {
	deadline := t0.Add(b.seconds)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec := e.count(adhocOp(b.seed, b.truth, i), explain, time.Now())
				mu.Lock()
				e.pass.Recs = append(e.pass.Recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// openLoop: requests are due on a seeded Poisson schedule whatever the
// server does. Each connection takes the next request in due order, waits
// for its due time if it is early, and sends it. A request due while both
// connections were still busy with earlier answers has waited for the
// server, so its latency runs from its due time. A request whose
// connection was idle is timed from when it was sent: the generator's own
// wake-up delay is not the server's, and is reported as lag instead.
func (b *bench) openLoop(e *env, explain bool, t0 time.Time) {
	var ops []Op
	for {
		op := e.dash.next()
		if op.Due >= b.seconds {
			break
		}
		ops = append(ops, op)
	}
	recs := make([]Rec, len(ops))
	lag := make([]float64, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				start := t0.Add(ops[i].Due)
				if time.Now().Before(start) {
					waitUntil(start)
					now := time.Now()
					lag[i] = ms(now.Sub(start))
					start = now
				}
				recs[i] = e.count(ops[i], explain, start)
			}
		}()
	}
	wg.Wait()
	e.pass.Recs, e.pass.LagMS = recs, lag
}

// waitUntil returns at t. It sleeps in nanosleep(2) rather than on a Go
// timer: runtime timers can fire up to a millisecond late, half the mean
// gap between dashboard arrivals, while the system call wakes within about
// 0.1 ms and burns no CPU.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR just loops
	}
}

// ingestLoop: one client repeats delta → counts cycles until the run time
// is up, finishing the cycle in progress.
func (b *bench) ingestLoop(e *env, explain bool, t0 time.Time) {
	for time.Since(t0) < b.seconds {
		for _, op := range e.ingest.cycle() {
			if op.Req == nil {
				e.pass.Recs = append(e.pass.Recs, e.sendDelta(op))
			} else {
				e.pass.Recs = append(e.pass.Recs, e.count(op, explain, time.Now()))
			}
		}
	}
}

// runPass sets up a server, measures one pass and stops the server.
func (b *bench) runPass(explain bool) (*Pass, error) {
	e, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer e.stop()
	if err := b.measure(e, explain); err != nil {
		return nil, err
	}
	return e.pass, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"
)

// CountReq is the POST /v1/count body.
type CountReq struct {
	SQL      string         `json:"sql"`
	Params   map[string]any `json:"params"`
	Method   string         `json:"method"`
	Budget   float64        `json:"budget"`
	Interval string         `json:"interval,omitempty"`
	Seed     uint64         `json:"seed"`
	Shards   int            `json:"shards,omitempty"`
	Exact    bool           `json:"exact,omitempty"`
	NoCache  bool           `json:"no_cache,omitempty"`
	Explain  bool           `json:"explain,omitempty"`
}

// Op is one planned operation with the reference answers to check it by.
type Op struct {
	Due   time.Duration // open loop: send time, from the start of the run
	Phase string        // ingest: delta, fresh, catalog or cached

	// Counts.
	Query   Query
	Req     *CountReq
	Objects int            // reference |O|
	Truth   int            // reference count
	Groups  map[string]int // reference per-region counts (grouped template)

	// Ingest deltas.
	Delta []byte // NDJSON body
	Want  DeltaWant
}

// DeltaWant is what a delta must report: rows appended, updated and
// deleted, and live rows afterwards.
type DeltaWant struct{ Appended, Updated, Deleted, Rows int }

func (o Op) countOp(t *Truth) Op {
	o.Objects = t.Objects(o.Query)
	o.Truth = t.Count(o.Query)
	if o.Query.Template == "grouped" {
		o.Groups = t.SkybandByRegion(o.Query.K)
	}
	return o
}

// adhocSlot is one position of the adhoc request mix.
type adhocSlot struct {
	template, method string
	shards           int
}

// adhocBlock is the request mix in blocks of 16, shuffled per block: ¼ of
// requests use srs and the rest lss, and ¼ of plain and ¼ of grouped
// requests run on 4 shards, whatever the seed. Half the requests are
// exists counts, the slowest unsharded template, so the median request is
// one of them rather than the boundary between two latency clusters.
var adhocBlock = []adhocSlot{
	{"exists", "lss", 0}, {"exists", "lss", 0}, {"exists", "lss", 0}, {"exists", "lss", 0},
	{"exists", "srs", 0}, {"exists", "srs", 0}, {"exists", "lss", 4}, {"exists", "lss", 4},
	{"skyband", "lss", 0}, {"skyband", "lss", 0}, {"skyband", "srs", 0}, {"skyband", "lss", 4},
	{"grouped", "lss", 0}, {"grouped", "lss", 0}, {"grouped", "srs", 0}, {"grouped", "lss", 4},
}

// adhocOp is request i of the adhoc workload: fresh parameters, no cache,
// the request index as seed. It depends only on (seed, i), so concurrent
// clients claiming indices in any order send the same requests.
func adhocOp(seed uint64, t *Truth, i int) Op {
	block := i / len(adhocBlock)
	perm := newRand(seed, "adhoc-block-"+strconv.Itoa(block)).Perm(len(adhocBlock))
	slot := adhocBlock[perm[i%len(adhocBlock)]]
	r := newRand(seed, "adhoc-"+strconv.Itoa(i))
	q := t.drawQuery(r, slot.template)
	budget := 0.05
	if r.IntN(2) == 1 {
		budget = 0.1
	}
	return Op{Query: q, Req: &CountReq{
		SQL: q.SQL(), Params: q.Params(), Method: slot.method, Budget: budget,
		Seed: uint64(i), Shards: slot.shards, NoCache: true,
	}}.countOp(t)
}

// Dashboard traffic: 36 plans, each asked at 5 budgets × 2 intervals =
// 360 keys, more than the server's 256-entry result cache.
const (
	dashPlans    = 36
	dashRate     = 500.0 // requests per second, Poisson arrivals
	dashZipfS    = 1.1   // Zipf exponent over key ranks
	dashZipfV    = 50.0  // Zipf offset: flattens the head so ~20% of requests miss the cache
	dashWarmBudg = 0.1
)

var (
	dashBudgets   = []float64{0.02, 0.04, 0.06, 0.08, 0.1}
	dashIntervals = []string{"wald", "wilson"}
)

// dashGen generates the dashboard's open-loop schedule.
type dashGen struct {
	t     *Truth
	plans []Query
	keys  []int // Zipf rank -> key index
	r     *rand.Rand
	zipf  *rand.Zipf
	due   time.Duration
}

func newDashGen(seed uint64, t *Truth) *dashGen {
	g := &dashGen{t: t}
	r := newRand(seed, "dash-plans")
	seen := map[string]bool{}
	for len(g.plans) < dashPlans {
		tpl := "skyband"
		if len(g.plans)%2 == 1 {
			tpl = "exists"
		}
		q := t.drawQuery(r, tpl)
		if !seen[q.String()] {
			seen[q.String()] = true
			g.plans = append(g.plans, q)
		}
	}
	// Ranks alternate between skyband and exists keys, each template's keys
	// in seeded order, so every seed spreads its hot keys evenly over both.
	perPlan := len(dashBudgets) * len(dashIntervals)
	nKeys := dashPlans * perPlan
	byTemplate := [2][]int{}
	for k := range nKeys {
		byTemplate[k/perPlan%2] = append(byTemplate[k/perPlan%2], k)
	}
	kr := newRand(seed, "dash-keys")
	for _, keys := range byTemplate {
		kr.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	for i := range byTemplate[0] {
		g.keys = append(g.keys, byTemplate[0][i], byTemplate[1][i])
	}
	g.r = newRand(seed, "dash-arrivals")
	g.zipf = rand.NewZipf(g.r, dashZipfS, dashZipfV, uint64(nKeys-1))
	return g
}

// planReq is plan p's request at one budget and interval. The plan's seed
// is fixed, so every budget of a plan shares one reuse-catalog entry.
func (g *dashGen) planReq(p int, budget float64, interval string) Op {
	q := g.plans[p]
	return Op{Query: q, Req: &CountReq{
		SQL: q.SQL(), Params: q.Params(), Method: "lss", Budget: budget,
		Interval: interval, Seed: uint64(1000 + p),
	}}.countOp(g.t)
}

// warmup is the set-up traffic in two rounds: every plan at budget 0.1
// (cold: it materializes the plan's catalog entry), then every other key
// once, so each key's labels are in the catalog before measurement starts.
func (g *dashGen) warmup() [][]Op {
	var cold, rest []Op
	for p := range g.plans {
		for _, b := range dashBudgets {
			for _, iv := range dashIntervals {
				if b == dashWarmBudg && iv == dashIntervals[0] {
					cold = append(cold, g.planReq(p, b, iv))
				} else {
					rest = append(rest, g.planReq(p, b, iv))
				}
			}
		}
	}
	return [][]Op{cold, rest}
}

// next returns the next arrival.
func (g *dashGen) next() Op {
	g.due += time.Duration(g.r.ExpFloat64() / dashRate * float64(time.Second))
	k := g.keys[g.zipf.Uint64()]
	perPlan := len(dashBudgets) * len(dashIntervals)
	p, rest := k/perPlan, k%perPlan
	op := g.planReq(p, dashBudgets[rest/len(dashIntervals)], dashIntervals[rest%len(dashIntervals)])
	op.Due = g.due
	return op
}

// Ingest cycle: one delta touching 1% of D (2 appends, 2 updates,
// 2 deletes), then per k, with the cycle number as seed, a first count on
// the new version, a lower-budget count the reuse catalog answers, and
// three repeats the result cache answers. Cache-served reads are then the majority, so the median count
// falls among them and the 90th percentile among the cold reads, rather
// than either sitting on the boundary between the two.
var (
	ingestKs     = []int{20, 40}
	ingestPhases = []struct {
		phase  string
		budget float64
	}{{"fresh", 0.05}, {"catalog", 0.03}, {"cached", 0.03}, {"cached", 0.03}, {"cached", 0.03}}
)

const ingestPerKind = 2

// ingestGen keeps the reference model of the live D across deltas.
type ingestGen struct {
	r      *rand.Rand
	pts    []Point
	nextID int64
	cycles int
	t      *Truth
}

func newIngestGen(seed uint64, d *Data) *ingestGen {
	return &ingestGen{
		r:      newRand(seed, "ingest"),
		pts:    slices.Clone(d.D),
		nextID: int64(len(d.D)),
		t:      &Truth{},
	}
}

type ndjsonOp struct {
	Op  string         `json:"op"`
	Key *int64         `json:"key,omitempty"`
	Row map[string]any `json:"row,omitempty"`
}

func rowOf(p Point) map[string]any {
	return map[string]any{"id": p.ID, "x": json.Number(fmtF(p.X)), "y": json.Number(fmtF(p.Y)), "region": p.Region}
}

// cycle returns the next delta and the counts that follow it, and applies
// the delta to the model.
func (g *ingestGen) cycle() []Op {
	idx := g.r.Perm(len(g.pts))[:2*ingestPerKind]
	var lines []ndjsonOp
	for _, i := range idx[:ingestPerKind] {
		id := g.pts[i].ID
		g.pts[i] = newPoint(g.r, id)
		lines = append(lines, ndjsonOp{Op: "update", Key: &id, Row: rowOf(g.pts[i])})
	}
	del := slices.Clone(idx[ingestPerKind:])
	slices.Sort(del)
	for j := len(del) - 1; j >= 0; j-- {
		id := g.pts[del[j]].ID
		lines = append(lines, ndjsonOp{Op: "delete", Key: &id})
		g.pts = slices.Delete(g.pts, del[j], del[j]+1)
	}
	for range ingestPerKind {
		p := newPoint(g.r, g.nextID)
		g.nextID++
		g.pts = append(g.pts, p)
		lines = append(lines, ndjsonOp{Op: "append", Row: rowOf(p)})
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, l := range lines {
		enc.Encode(l) //nolint:errcheck // encoding plain maps into a buffer cannot fail
	}
	g.t.setD(g.pts)
	g.cycles++
	ops := []Op{{Phase: "delta", Delta: body.Bytes(), Want: DeltaWant{
		Appended: ingestPerKind, Updated: ingestPerKind, Deleted: ingestPerKind, Rows: len(g.pts),
	}}}
	for _, k := range ingestKs {
		q := Query{Template: "skyband", K: k}
		for _, ph := range ingestPhases {
			op := Op{Phase: ph.phase, Query: q, Req: &CountReq{
				SQL: q.SQL(), Params: q.Params(), Method: "lss", Budget: ph.budget, Seed: uint64(g.cycles),
			}}.countOp(g.t)
			ops = append(ops, op)
		}
	}
	return ops
}

// RequestLog renders the first n operations a workload sends for seed, one
// line each: due time, endpoint and body. It is the determinism witness
// for generation.
func RequestLog(workload string, seed uint64, n int) ([]byte, error) {
	d := GenData(seed, nD, nE, nR, nKeys)
	t := NewTruth(d)
	var ops []Op
	switch workload {
	case "adhoc":
		for i := range n {
			ops = append(ops, adhocOp(seed, t, i))
		}
	case "dashboard":
		g := newDashGen(seed, t)
		for _, round := range g.warmup() {
			ops = append(ops, round...)
		}
		for len(ops) < n {
			ops = append(ops, g.next())
		}
	case "ingest":
		g := newIngestGen(seed, d)
		for len(ops) < n {
			ops = append(ops, g.cycle()...)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	var b bytes.Buffer
	b.Write(csvD(d.D))
	b.Write(csvE(d.E))
	b.Write(csvR(d.R))
	for _, op := range ops[:n] {
		fmt.Fprintf(&b, "%d ", op.Due.Nanoseconds())
		if op.Req == nil {
			fmt.Fprintf(&b, "ingest %q\n", op.Delta)
			continue
		}
		body, err := json.Marshal(op.Req)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "count %s truth=%d\n", body, op.Truth)
	}
	return b.Bytes(), nil
}

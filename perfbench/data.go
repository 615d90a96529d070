package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
)

// Dataset sizes. D backs the skyband templates, E and R the exists join.
const (
	nD      = 600
	nE      = 500
	nR      = 2500
	nKeys   = 500
	regions = 4
)

// Point is one row of D(id, x, y, region).
type Point struct {
	ID     int64
	X, Y   float64
	Region string
}

// Fact is one row of R(key, v).
type Fact struct {
	Key int64
	V   float64
}

// Data is one seeded instance of the three tables.
type Data struct {
	D []Point
	E []Point // region unused: E(id, x, y)
	R []Fact
}

// newRand returns the generator for one named stream of a seed, so each
// table and request sequence draws independently of the others.
func newRand(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// grid draws a coordinate on a 1e-6 grid in [0, 1]. Such values print
// exactly with six decimals, so the server parses the same float64 the
// reference computes with.
func grid(r *rand.Rand) float64 { return float64(r.IntN(1_000_001)) / 1e6 }

func newPoint(r *rand.Rand, id int64) Point {
	return Point{ID: id, X: grid(r), Y: grid(r), Region: "r" + strconv.Itoa(r.IntN(regions))}
}

// GenData builds the tables for seed with the given sizes.
func GenData(seed uint64, d, e, facts, keys int) *Data {
	out := &Data{}
	r := newRand(seed, "D")
	for i := range d {
		out.D = append(out.D, newPoint(r, int64(i)))
	}
	r = newRand(seed, "E")
	for i := range e {
		p := newPoint(r, int64(i))
		p.Region = ""
		out.E = append(out.E, p)
	}
	r = newRand(seed, "R")
	for range facts {
		out.R = append(out.R, Fact{Key: int64(r.IntN(keys)), V: float64(r.IntN(1_000_001)) / 1e5})
	}
	return out
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// CSV renders D, E and R in the upload format.
func (p Point) csv(withRegion bool) string {
	s := strconv.FormatInt(p.ID, 10) + "," + fmtF(p.X) + "," + fmtF(p.Y)
	if withRegion {
		s += "," + p.Region
	}
	return s
}

func csvD(pts []Point) []byte {
	var b strings.Builder
	b.WriteString("id,x,y,region\n")
	for _, p := range pts {
		b.WriteString(p.csv(true) + "\n")
	}
	return []byte(b.String())
}

func csvE(pts []Point) []byte {
	var b strings.Builder
	b.WriteString("id,x,y\n")
	for _, p := range pts {
		b.WriteString(p.csv(false) + "\n")
	}
	return []byte(b.String())
}

func csvR(facts []Fact) []byte {
	var b strings.Builder
	b.WriteString("key,v\n")
	for _, f := range facts {
		b.WriteString(strconv.FormatInt(f.Key, 10) + "," + fmtF(f.V) + "\n")
	}
	return []byte(b.String())
}

const (
	schemaD = "id:int,x:float,y:float,region:string"
	schemaE = "id:int,x:float,y:float"
	schemaR = "key:int,v:float"
)

// The repository's three counting templates.
const (
	sqlSkyband = `SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id HAVING COUNT(*) < k`
	sqlExists  = `SELECT d.id FROM E d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id HAVING COUNT(*) >= m`
	sqlGrouped = `SELECT region, COUNT(*) FROM (SELECT o1.id, o1.region FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id, o1.region HAVING COUNT(*) < k) GROUP BY region`
)

// Truth is the benchmark's own answer reference, computed from the
// generated rows without the system under test.
type Truth struct {
	objD, objE int
	dom        []int       // per D point: how many points dominate it
	region     []string    // per D point
	factsByKey [][]float64 // per E id: the R.v values joined to it, ascending
	regions    []string    // sorted region names present in D
}

// NewTruth computes dominance counts and per-key fact lists once.
func NewTruth(d *Data) *Truth {
	t := &Truth{objD: len(d.D), objE: len(d.E)}
	t.setD(d.D)
	byKey := map[int64][]float64{}
	for _, f := range d.R {
		byKey[f.Key] = append(byKey[f.Key], f.V)
	}
	t.factsByKey = make([][]float64, len(d.E))
	for i, e := range d.E {
		vs := byKey[e.ID]
		slices.Sort(vs)
		t.factsByKey[i] = vs
	}
	return t
}

// setD recomputes the skyband reference for a new state of D.
func (t *Truth) setD(pts []Point) {
	t.objD = len(pts)
	t.dom = make([]int, len(pts))
	t.region = make([]string, len(pts))
	seen := map[string]bool{}
	for i, p := range pts {
		n := 0
		for _, o := range pts {
			if o.X >= p.X && o.Y >= p.Y && (o.X > p.X || o.Y > p.Y) {
				n++
			}
		}
		t.dom[i] = n
		t.region[i] = p.Region
		seen[p.Region] = true
	}
	t.regions = t.regions[:0]
	for r := range seen {
		t.regions = append(t.regions, r)
	}
	slices.Sort(t.regions)
}

// Skyband is the true HAVING COUNT(*) < k answer. A point nothing
// dominates forms no join group, so it never qualifies.
func (t *Truth) Skyband(k int) int {
	n := 0
	for _, c := range t.dom {
		if c >= 1 && c < k {
			n++
		}
	}
	return n
}

// SkybandByRegion is the grouped answer, keyed by region.
func (t *Truth) SkybandByRegion(k int) map[string]int {
	out := map[string]int{}
	for _, r := range t.regions {
		out[r] = 0
	}
	for i, c := range t.dom {
		if c >= 1 && c < k {
			out[t.region[i]]++
		}
	}
	return out
}

// Exists is the true answer of the exists join: E rows with at least m
// joined R rows whose v exceeds th.
func (t *Truth) Exists(th float64, m int) int {
	n := 0
	for _, vs := range t.factsByKey {
		above := len(vs) - countAtMost(vs, th)
		if above >= m {
			n++
		}
	}
	return n
}

func countAtMost(sorted []float64, th float64) int {
	i, _ := slices.BinarySearchFunc(sorted, th, func(v, th float64) int {
		if v <= th {
			return -1
		}
		return 1
	})
	return i
}

// Query is one parameterized template instance.
type Query struct {
	Template string  // "skyband", "exists" or "grouped"
	K        int     // skyband and grouped
	T        float64 // exists
	M        int     // exists
}

func (q Query) SQL() string {
	switch q.Template {
	case "skyband":
		return sqlSkyband
	case "exists":
		return sqlExists
	}
	return sqlGrouped
}

func (q Query) Params() map[string]any {
	if q.Template == "exists" {
		return map[string]any{"t": q.T, "m": q.M}
	}
	return map[string]any{"k": q.K}
}

func (q Query) String() string {
	if q.Template == "exists" {
		return fmt.Sprintf("exists(t=%s,m=%d)", fmtF(q.T), q.M)
	}
	return fmt.Sprintf("%s(k=%d)", q.Template, q.K)
}

// Objects is the reference |O| of the query's object set.
func (t *Truth) Objects(q Query) int {
	if q.Template == "exists" {
		return t.objE
	}
	return t.objD
}

// Count is the reference answer of q.
func (t *Truth) Count(q Query) int {
	if q.Template == "exists" {
		return t.Exists(q.T, q.M)
	}
	return t.Skyband(q.K)
}

// drawQuery draws a template instance whose true count is at least 5% of
// |O|, so relative error is always defined. Rejection keeps the draw a
// function of the generator alone.
func (t *Truth) drawQuery(r *rand.Rand, template string) Query {
	for {
		q := Query{Template: template}
		if template == "exists" {
			q.T = float64(r.IntN(701)) / 100 // t in [0, 7]
			q.M = 1 + r.IntN(3)
		} else {
			q.K = 10 + r.IntN(51) // k in [10, 60]
		}
		if 20*t.Count(q) >= t.Objects(q) {
			return q
		}
	}
}

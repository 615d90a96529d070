package qcompile

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sql"
)

// hoistGen turns fuzz bytes into choices; an exhausted input reads as
// zeros, so every byte string decodes to some query.
type hoistGen struct {
	b []byte
	i int
}

func (g *hoistGen) pick(n int) int {
	if g.i >= len(g.b) {
		return 0
	}
	v := int(g.b[g.i]) % n
	g.i++
	return v
}

// Value palettes: NaN and ±0 are the interpreter corner cases the compiled
// path must mirror (NaN compares equal to everything, -0 == +0).
var (
	hoistFloats = []float64{0, math.Copysign(0, -1), 1, 2.5, -1, 3, math.NaN()}
	hoistInts   = []int64{0, 1, 2, 3, -1}
	hoistStrs   = []string{"a", "b", ""}
)

// hoistCatalog builds D(id, x, y, tag), R(key, v, s) and S(k2, w) with
// 0..5 / 0..7 / 0..4 rows, so empty relations occur at every join depth.
func (g *hoistGen) catalog() engine.Catalog {
	d := dataset.New("D", dataset.Schema{
		{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float},
		{Name: "y", Kind: dataset.Float}, {Name: "tag", Kind: dataset.String},
	})
	for i, n := 0, g.pick(6); i < n; i++ {
		d.MustAppendRow(hoistInts[g.pick(len(hoistInts))], hoistFloats[g.pick(len(hoistFloats))],
			hoistFloats[g.pick(len(hoistFloats))], hoistStrs[g.pick(len(hoistStrs))])
	}
	r := dataset.New("R", dataset.Schema{
		{Name: "key", Kind: dataset.Int}, {Name: "v", Kind: dataset.Float}, {Name: "s", Kind: dataset.String},
	})
	for i, n := 0, g.pick(8); i < n; i++ {
		r.MustAppendRow(hoistInts[g.pick(len(hoistInts))], hoistFloats[g.pick(len(hoistFloats))],
			hoistStrs[g.pick(len(hoistStrs))])
	}
	s := dataset.New("S", dataset.Schema{{Name: "k2", Kind: dataset.Int}, {Name: "w", Kind: dataset.Float}})
	for i, n := 0, g.pick(5); i < n; i++ {
		s.MustAppendRow(hoistInts[g.pick(len(hoistInts))], hoistFloats[g.pick(len(hoistFloats))])
	}
	return engine.Catalog{"D": d, "R": r, "S": s}
}

// hoistShape is one FROM clause with its column vocabulary. Unqualified
// names are included only where unique across the FROM, as SQL requires.
type hoistShape struct {
	from    string
	nums    []string // numeric column references
	strs    []string // string column references
	groupBy []string
}

var hoistShapes = []hoistShape{
	{from: "D d, R r", nums: []string{"d.id", "d.x", "d.y", "r.key", "r.v", "key", "v"},
		strs: []string{"d.tag", "r.s", "s"}},
	{from: "D d, D e", nums: []string{"d.id", "d.x", "e.id", "e.x", "e.y"},
		strs: []string{"d.tag", "e.tag"}},
	{from: "D d, R r, S t", nums: []string{"d.id", "d.y", "r.key", "r.v", "t.k2", "t.w", "k2", "w"},
		strs: []string{"d.tag", "r.s"}},
}

var hoistGroups = [][]string{{"d.id"}, {"d.id", "d.tag"}, {"d.tag"}, {"d.id", "d.x"}}

// num renders a numeric expression: a column, a literal, the unqualified
// parameter p, or + - * over two of them.
func (g *hoistGen) num(sh hoistShape, depth int) string {
	switch k := g.pick(5); {
	case k == 0 && depth < 2:
		ops := []string{"+", "-", "*"}
		return "(" + g.num(sh, depth+1) + " " + ops[g.pick(3)] + " " + g.num(sh, depth+1) + ")"
	case k == 1:
		return []string{"0", "1", "2.5", "-1", "0.0", "3"}[g.pick(6)]
	case k == 2:
		return "p"
	default:
		return sh.nums[g.pick(len(sh.nums))]
	}
}

func (g *hoistGen) str(sh hoistShape) string {
	switch g.pick(4) {
	case 0:
		return "'" + hoistStrs[g.pick(len(hoistStrs))] + "'"
	case 1:
		return "sp"
	default:
		return sh.strs[g.pick(len(sh.strs))]
	}
}

var hoistCmp = []string{"=", "<>", "<", "<=", ">", ">="}

// cond renders a boolean expression over comparisons, AND/OR/NOT.
func (g *hoistGen) cond(sh hoistShape, depth int) string {
	switch k := g.pick(6); {
	case k == 0 && depth < 2:
		return "(" + g.cond(sh, depth+1) + " OR " + g.cond(sh, depth+1) + ")"
	case k == 1 && depth < 2:
		return "(" + g.cond(sh, depth+1) + " AND " + g.cond(sh, depth+1) + ")"
	case k == 2 && depth < 2:
		return "NOT (" + g.cond(sh, depth+1) + ")"
	case k == 3:
		return g.str(sh) + " " + hoistCmp[g.pick(len(hoistCmp))] + " " + g.str(sh)
	default:
		return g.num(sh, 1) + " " + hoistCmp[g.pick(len(hoistCmp))] + " " + g.num(sh, 1)
	}
}

// having renders an aggregate comparison, optionally combined.
func (g *hoistGen) having(sh hoistShape, depth int) string {
	if depth < 1 && g.pick(3) == 0 {
		return "(" + g.having(sh, 1) + []string{" AND ", " OR "}[g.pick(2)] + g.having(sh, 1) + ")"
	}
	var agg string
	switch g.pick(5) {
	case 0:
		agg = "COUNT(*)"
	default:
		fn := []string{"SUM", "AVG", "MIN", "MAX"}[g.pick(4)]
		agg = fn + "(" + sh.nums[g.pick(len(sh.nums))] + ")"
	}
	rhs := []string{"k", "1", "2", "2.5", "0"}[g.pick(5)]
	return agg + " " + hoistCmp[g.pick(len(hoistCmp))] + " " + rhs
}

// query renders a Q1-shaped counting query and its parameters.
func (g *hoistGen) query() (string, map[string]engine.Value) {
	sh := hoistShapes[g.pick(len(hoistShapes))]
	gl := hoistGroups[g.pick(len(hoistGroups))]
	conj := make([]string, 1+g.pick(3))
	for i := range conj {
		conj[i] = g.cond(sh, 0)
	}
	q := fmt.Sprintf("SELECT %s FROM %s WHERE %s GROUP BY %s",
		strings.Join(gl, ", "), sh.from, strings.Join(conj, " AND "), strings.Join(gl, ", "))
	if g.pick(3) > 0 {
		q += " HAVING " + g.having(sh, 0)
	}
	nums := []engine.Value{engine.IntVal(2), engine.FloatVal(1.5), engine.FloatVal(math.NaN()),
		engine.FloatVal(math.Copysign(0, -1)), engine.IntVal(0)}
	params := map[string]engine.Value{
		"p":  nums[g.pick(len(nums))],
		"k":  nums[g.pick(len(nums))],
		"sp": engine.StringVal(hoistStrs[g.pick(len(hoistStrs))]),
	}
	return q, params
}

// FuzzHoistedQ3 pins the hoisting gate: for every generated query the gate
// admits (Compile and Bind succeed, Program.Infallible holds), the hoisted
// interpreter, the full nested-loop interpreter, the compiled scalar
// closures and the vector arena produce identical whole label vectors, and
// neither interpreter errors on any object.
func FuzzHoistedQ3(f *testing.F) {
	for _, seed := range [][]byte{
		{4, 6, 2, 1, 3, 0, 3, 1, 2, 5, 6, 4, 1, 0, 2, 2, 1, 0, 0, 0, 5, 3, 3, 2, 1},
		{5, 1, 2, 3, 2, 0, 6, 0, 1, 1, 1, 2, 0, 7, 3, 4, 1, 5, 2, 0, 1, 4, 0, 2, 2, 1, 0, 0, 3, 1, 2},
		{3, 0, 0, 1, 7, 4, 2, 3, 5, 6, 1, 3, 4, 2, 2, 1, 0, 4, 1, 3, 2, 0, 0, 1, 5, 2, 0, 4, 2},
		{0, 4, 1, 2, 3, 1, 1, 0, 2, 5, 2, 1, 1, 3, 3, 4, 2, 0, 6, 5, 3, 2, 1},
		{5, 2, 6, 0, 1, 3, 4, 6, 2, 1, 7, 2, 5, 1, 0, 0, 2, 3, 0, 1, 2, 0, 4, 1, 4, 0, 2, 1, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &hoistGen{b: data}
		cat := g.catalog()
		q, params := g.query()
		checkHoisted(t, cat, q, params)
	})
}

// checkHoisted runs the four labeling paths for one query when the gate
// admits it and fails on any disagreement.
func checkHoisted(t *testing.T, cat engine.Catalog, q string, params map[string]engine.Value) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, q)
	}
	dec, err := engine.Decompose(stmt)
	if err != nil {
		t.Fatalf("decompose: %v\n%s", err, q)
	}
	ev := engine.NewEvaluator(cat)
	for k, v := range params {
		ev.SetParam(k, v)
	}
	objects, err := ev.Run(dec.Objects, nil)
	if err != nil {
		return // Q2 itself fails: the request errors before any labeling
	}
	prog, err := Compile(dec, cat)
	if err != nil {
		return
	}
	bound, err := prog.Bind(params, objects)
	if err != nil || !prog.Infallible() {
		return
	}
	n := objects.NumRows()
	full := ev.ObjectPredicate(dec, objects)
	hoisted := ev.HoistedObjectPredicate(dec, objects)
	scalar := bound.NewEvalFn()
	want := make([]bool, n)
	idxs := make([]int, n)
	for i := 0; i < n; i++ {
		idxs[i] = i
		w, err := full(i)
		if err != nil {
			t.Fatalf("gate admitted a query the full interpreter fails on (object %d): %v\n%s", i, err, q)
		}
		want[i] = w
		h, err := hoisted(i)
		if err != nil {
			t.Fatalf("hoisted interpreter failed on object %d: %v\n%s", i, err, q)
		}
		if h != w {
			t.Fatalf("object %d: hoisted=%v full=%v\n%s", i, h, w, q)
		}
		if c := scalar(i); c != w {
			t.Fatalf("object %d: compiled=%v interpreted=%v\n%s", i, c, w, q)
		}
	}
	got := make([]bool, n)
	bound.NewVecEval().EvalBatch(idxs, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("object %d: vector=%v interpreted=%v\n%s", i, got[i], want[i], q)
		}
	}
}

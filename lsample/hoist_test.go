package lsample

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// predicateBuildInterp executes q once under a sample-everything tracer and
// returns the predicate.build span's interp attribute.
func predicateBuildInterp(t *testing.T, q *PreparedQuery, params map[string]any, opts ...Option) (string, error) {
	t.Helper()
	tr := NewTracer(TracerOptions{SampleRate: 1})
	if _, err := q.Execute(context.Background(), params, append(opts, WithTracer(tr))...); err != nil {
		return "", err
	}
	traces := tr.Traces(1)
	if len(traces) != 1 {
		t.Fatalf("want one trace, got %d", len(traces))
	}
	for _, c := range traces[0].Children {
		if c.Name == "predicate.build" {
			s, _ := c.Attrs["interp"].(string)
			return s, nil
		}
	}
	t.Fatal("no predicate.build span")
	return "", nil
}

// TestPredicateBuildInterpAttr pins which interpreter validation runs: the
// hoisted one for a bound, infallible program, the full join scan when
// compilation is disabled.
func TestPredicateBuildInterpAttr(t *testing.T) {
	d, r := compileJoinTables(t, 40, 160, 30, 3)
	sess, err := NewSession(NewMemorySource(d, r), WithMethod("srs"), WithBudget(0.3), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(equiJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]any{"t": 4.0, "m": 2}
	for _, tc := range []struct {
		opts []Option
		want string
	}{
		{nil, "hoisted"},
		{[]Option{WithCompilation(false)}, "full"},
	} {
		got, err := predicateBuildInterp(t, q, params, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("interp = %q, want %q", got, tc.want)
		}
	}
}

// TestFallibleQ3KeepsFullValidation: a WHERE that divides is outside the
// hoisting gate, so the build still interprets the whole join and fails
// on a zero divisor that only a row unrelated to object 0 reaches — the
// same error with or without compilation. Hoisted, the correlation would
// prune that row and the compiled labeling could later panic on it.
func TestFallibleQ3KeepsFullValidation(t *testing.T) {
	d, err := NewTable("D", "id:int,x:float")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewTable("R", "key:int,v:float,z:float")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := d.AppendRow(int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
		z := 2.0
		if i == 5 {
			z = 0 // the only zero divisor, joined to object id 5 alone
		}
		if err := r.AppendRow(int64(i), 10.0, z); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(NewMemorySource(d, r), WithMethod("srs"), WithBudget(0.5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(`SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v / r.z > t GROUP BY d.id`)
	if err != nil {
		t.Fatal(err)
	}
	if q.prog == nil || q.prog.Infallible() {
		t.Fatalf("want a compiled, fallible program (prog=%v, reason %q)", q.prog != nil, q.progErr)
	}
	params := map[string]any{"t": 1.0}
	_, errCompiled := q.Execute(context.Background(), params)
	_, errInterp := q.Execute(context.Background(), params, WithCompilation(false))
	if errCompiled == nil || !strings.Contains(errCompiled.Error(), "division by zero") {
		t.Fatalf("compiled build: want a division-by-zero validation error, got %v", errCompiled)
	}
	if errInterp == nil || errCompiled.Error() != errInterp.Error() {
		t.Fatalf("errors differ:\ncompiled: %v\ninterpreted: %v", errCompiled, errInterp)
	}
}

// TestCorruptedCompiledFallsBack binds a program compiled over different
// data (its hash index and table reads disagree with the interpreter's
// catalog) and checks the first-object cross-check still catches it: the
// build falls back to the hoisted interpreter, whose labels match the
// full nested loop on every object.
func TestCorruptedCompiledFallsBack(t *testing.T) {
	mk := func(key int64) (*Table, *Table) {
		d, err := NewTable("D", "id:int,x:float,y:float")
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewTable("R", "key:int,v:float")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := d.AppendRow(int64(i), 1.0, 1.0); err != nil {
				t.Fatal(err)
			}
			if err := r.AppendRow(key, 9.0); err != nil {
				t.Fatal(err)
			}
		}
		return d, r
	}
	prepare := func(d, r *Table) *PreparedQuery {
		sess, err := NewSession(NewMemorySource(d, r))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sess.Prepare(equiJoinSQL)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa := prepare(mk(0)) // object 0 (id 0) has six partners: positive
	qb := prepare(mk(1)) // object 0 has none: negative
	vals, _, err := convertParams(map[string]any{"t": 4.0, "m": 3})
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(qb.cat)
	for k, v := range vals {
		ev.SetParam(k, v)
	}
	objects, err := qb.enumerate(ev, vals)
	if err != nil {
		t.Fatal(err)
	}
	pred, lab, err := buildEnginePredicate(ev, qb.dec, objects, qa.prog, qa.progErr, vals, qb.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Compiled || lab.Fallback != "first-object cross-check failed" {
		t.Fatalf("labeling = %+v, want the cross-check fallback", lab)
	}
	full := engine.NewEvaluator(qb.cat)
	for k, v := range vals {
		full.SetParam(k, v)
	}
	want := full.ObjectPredicate(qb.dec, objects)
	for i := 0; i < objects.NumRows(); i++ {
		w, err := want(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := pred.Eval(i); got != w {
			t.Fatalf("object %d: fallback=%v full=%v", i, got, w)
		}
	}
}

// TestSharedObjectSetConcurrentExecutes runs many concurrent Executes with
// different parameters and seeds over one prepared query whose Q2 reads no
// parameter, so all of them share the memoized object set (run with
// -race). Each estimate must equal the same execution on a freshly
// prepared query.
func TestSharedObjectSetConcurrentExecutes(t *testing.T) {
	tb := compileTestTable(t, 80, 17)
	sess, err := NewSession(NewMemorySource(tb), WithMethod("lss"), WithBudget(0.3), WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sess.Prepare(skybandSQL)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		k    int
		seed uint64
	}
	var runs []run
	for k := 6; k < 12; k++ {
		runs = append(runs, run{k, uint64(k)}, run{k, uint64(k + 100)})
	}
	got := make([]*Estimate, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r run) {
			defer wg.Done()
			got[i], errs[i] = q.Execute(context.Background(), map[string]any{"k": r.k}, WithSeed(r.seed), WithParallelism(2))
		}(i, r)
	}
	wg.Wait()
	if q.objects == nil {
		t.Fatal("parameter-free Q2 was not memoized")
	}
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		fresh, err := sess.Prepare(skybandSQL)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Execute(context.Background(), map[string]any{"k": r.k}, WithSeed(r.seed), WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimings(got[i]), stripTimings(want)) {
			t.Fatalf("k=%d seed=%d: shared-set estimate diverges:\n got %+v\nwant %+v", r.k, r.seed, got[i], want)
		}
	}
}

// TestParameterizedQ2NotMemoized: when Q2 reads a parameter the object
// set differs per execution, so it must be enumerated every time.
func TestParameterizedQ2NotMemoized(t *testing.T) {
	tb := compileTestTable(t, 60, 5)
	sess, err := NewSession(NewMemorySource(tb), WithMethod("srs"), WithBudget(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// With a single-table FROM the unqualified lo filter is local to the
	// object table, so the decomposition moves it into Q2.
	q, err := sess.Prepare(`SELECT o.id FROM D o WHERE o.x > lo GROUP BY o.id HAVING COUNT(*) < k`)
	if err != nil {
		t.Fatal(err)
	}
	var objects []int
	for _, lo := range []float64{10, 60} {
		est, err := q.Execute(context.Background(), map[string]any{"k": 8, "lo": lo})
		if err != nil {
			t.Fatal(err)
		}
		objects = append(objects, est.Objects)
	}
	if q.objects != nil {
		t.Fatal("a Q2 that reads a parameter must not be memoized")
	}
	if objects[0] == objects[1] {
		t.Fatalf("object counts %v should differ with lo", objects)
	}
}

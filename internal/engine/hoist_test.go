package engine

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// TestHoistedObjectPredicateMatchesFull checks the hoisted interpreter
// labels every skyband object exactly as the full nested loop does while
// visiting one object's rows: with the o1.id correlation decided at the
// outer depth, object evaluation reaches |D| complete rows, not |D|².
func TestHoistedObjectPredicateMatchesFull(t *testing.T) {
	r := xrand.New(3)
	pts := make([]geom.Point2, 40)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(r.IntN(10)), Y: float64(r.IntN(10))}
	}
	cat := Catalog{"D": pointsTable(pts)}
	dec, err := Decompose(mustParse(t, `
		SELECT o1.id FROM D o1, D o2
		WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
		GROUP BY o1.id HAVING COUNT(*) < k`))
	if err != nil {
		t.Fatal(err)
	}
	full, hoisted := NewEvaluator(cat), NewEvaluator(cat)
	full.SetParam("k", IntVal(4))
	hoisted.SetParam("k", IntVal(4))
	objects, err := full.Run(dec.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	full.Stats, hoisted.Stats = Stats{}, Stats{}
	fp := full.ObjectPredicate(dec, objects)
	hp := hoisted.HoistedObjectPredicate(dec, objects)
	for i := range objects.Rows {
		want, err := fp(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hp(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("object %d: hoisted=%v full=%v", i, got, want)
		}
	}
	n := int64(len(pts))
	if full.Stats.RowsScanned != n*n*n {
		t.Fatalf("full RowsScanned = %d, want %d", full.Stats.RowsScanned, n*n*n)
	}
	if hoisted.Stats.RowsScanned != n*n {
		t.Fatalf("hoisted RowsScanned = %d, want %d (one object's rows each)", hoisted.Stats.RowsScanned, n*n)
	}
	if hoisted.Stats.SubqueryRuns != full.Stats.SubqueryRuns {
		t.Fatalf("SubqueryRuns: hoisted %d, full %d", hoisted.Stats.SubqueryRuns, full.Stats.SubqueryRuns)
	}
}

// TestHoistedNoConjunctOnEmptyRelation: as with the full nested loop, no
// WHERE conjunct runs when any FROM relation is empty — not even one a
// hoist places above the empty relation's depth.
func TestHoistedNoConjunctOnEmptyRelation(t *testing.T) {
	d := dataset.New("D", dataset.Schema{{Name: "id", Kind: dataset.Int}, {Name: "x", Kind: dataset.Float}})
	d.MustAppendRow(int64(1), 0.0)
	r := dataset.New("R", dataset.Schema{{Name: "key", Kind: dataset.Int}})
	cat := Catalog{"D": d, "R": r}
	// 1 / d.x divides by zero on the only D row, at the outer depth.
	dec, err := Decompose(mustParse(t, `SELECT d.id FROM D d, R r
		WHERE 1 / d.x > 0 AND d.id = r.key GROUP BY d.id`))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(cat)
	objects := &ResultSet{Cols: []string{"id"}, Rows: [][]Value{{IntVal(1)}}}
	for _, p := range []func(int) (bool, error){
		ev.ObjectPredicate(dec, objects), ev.HoistedObjectPredicate(dec, objects),
	} {
		got, err := p(0)
		if err != nil || got {
			t.Fatalf("empty R: got (%v, %v), want (false, nil)", got, err)
		}
	}
	if ev.Stats.PredicateEval != 0 {
		t.Fatalf("PredicateEval = %d, want 0", ev.Stats.PredicateEval)
	}
}

package engine

import (
	"fmt"

	"repro/internal/sql"
)

// ObjectAlias is the binding name the decomposed per-object predicate (Q3)
// uses to reference the current object row, mirroring the paper's "o".
const ObjectAlias = "_o"

// Decomposed is the §2 rewriting of a counting query (Q1) into an
// object-enumeration query (Q2) and a per-object predicate (Q3):
//
//	Q1: SELECT E FROM L, R WHERE θL AND θLR GROUP BY GL HAVING φ
//	Q2: SELECT DISTINCT GL FROM L WHERE θL
//	Q3: EXISTS (SELECT GL FROM L, R WHERE θL AND θLR AND GL = o.*
//	            GROUP BY GL HAVING φ)
//
// Counting Q1's results equals counting the Q2 objects satisfying Q3, which
// is exactly the C(O, q) estimation problem the rest of the repository
// solves. Note we conservatively keep θL inside Q3 as well: the paper's
// formulation omits it, which is only equivalent when θL is functionally
// determined by GL; retaining it is always correct.
type Decomposed struct {
	Objects   *sql.SelectStmt // Q2
	Predicate sql.Expr        // Q3, referencing ObjectAlias
	GroupCols []string        // output column names of Q2, aligned with GROUP BY

	// FeatureCols are the candidate classifier features per the paper's
	// heuristic: columns referenced through an L alias (or unqualified,
	// when FROM is entirely L) in the original WHERE and HAVING. Names
	// that are really free parameters or non-numeric columns survive
	// here; narrow with NumericFeatureColumns against the object table.
	FeatureCols []string
}

// Decompose rewrites a Q1-shaped statement. The statement must have a
// non-empty GROUP BY consisting of column references; group columns must be
// qualified unless the FROM clause has a single table.
func Decompose(stmt *sql.SelectStmt) (*Decomposed, error) {
	if len(stmt.GroupBy) == 0 {
		return nil, fmt.Errorf("engine: decompose requires GROUP BY")
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("engine: decompose requires FROM")
	}

	// Resolve group-by columns and the set of "L" aliases they live in.
	type glCol struct {
		ref  *sql.ColumnRef
		name string // Q2 output name
	}
	var gls []glCol
	lAliases := make(map[string]bool)
	nameSeen := make(map[string]int)
	for _, g := range stmt.GroupBy {
		cr, ok := g.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("engine: GROUP BY expression %s is not a column", g.String())
		}
		q := cr.Qualifier
		if q == "" {
			if len(stmt.From) != 1 {
				return nil, fmt.Errorf("engine: unqualified GROUP BY column %s with multi-table FROM", cr.Name)
			}
			q = stmt.From[0].BindName()
			cr = &sql.ColumnRef{Qualifier: q, Name: cr.Name}
		}
		lAliases[q] = true
		name := cr.Name
		if n := nameSeen[name]; n > 0 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		nameSeen[cr.Name]++
		gls = append(gls, glCol{ref: cr, name: name})
	}

	// Partition FROM into L (bind names referenced by GROUP BY) and verify
	// all group aliases exist.
	var lRefs []sql.TableRef
	fromAliases := make(map[string]bool)
	for _, tr := range stmt.From {
		fromAliases[tr.BindName()] = true
		if lAliases[tr.BindName()] {
			lRefs = append(lRefs, tr)
		}
	}
	for a := range lAliases {
		if !fromAliases[a] {
			return nil, fmt.Errorf("engine: GROUP BY references unknown alias %q", a)
		}
	}

	// Split WHERE into θL (references only L aliases, no subqueries) and
	// θLR (everything else).
	var thetaL, thetaLR []sql.Expr
	for _, c := range sql.SplitConjuncts(stmt.Where) {
		if conjunctIsLocal(c, lAliases, len(stmt.From) == len(lRefs)) {
			thetaL = append(thetaL, c)
		} else {
			thetaLR = append(thetaLR, c)
		}
	}

	// Q2: SELECT DISTINCT GL FROM L WHERE θL.
	q2 := &sql.SelectStmt{Distinct: true}
	for _, g := range gls {
		q2.Select = append(q2.Select, sql.SelectItem{Expr: g.ref, Alias: g.name})
	}
	q2.From = append(q2.From, lRefs...)
	q2.Where = sql.Conjoin(thetaL)

	// Q3: EXISTS(SELECT GL FROM L,R WHERE θL AND θLR AND GL=o.* GROUP BY GL
	// HAVING φ).
	q3 := &sql.SelectStmt{}
	for _, g := range gls {
		q3.Select = append(q3.Select, sql.SelectItem{Expr: g.ref})
	}
	q3.From = append(q3.From, stmt.From...)
	conj := make([]sql.Expr, 0, len(thetaL)+len(thetaLR)+len(gls))
	conj = append(conj, thetaL...)
	conj = append(conj, thetaLR...)
	for _, g := range gls {
		conj = append(conj, &sql.BinaryExpr{
			Op: "=",
			L:  g.ref,
			R:  &sql.ColumnRef{Qualifier: ObjectAlias, Name: g.name},
		})
	}
	q3.Where = sql.Conjoin(conj)
	for _, g := range gls {
		q3.GroupBy = append(q3.GroupBy, g.ref)
	}
	q3.Having = stmt.Having

	cols := make([]string, len(gls))
	for i, g := range gls {
		cols[i] = g.name
	}

	// Candidate features: what the original predicate reads of the object,
	// i.e. WHERE and HAVING references through L aliases. With a pure-L
	// FROM, unqualified names can only be object columns or parameters.
	featAliases := make([]string, 0, len(lAliases)+1)
	for a := range lAliases {
		featAliases = append(featAliases, a)
	}
	if len(stmt.From) == len(lRefs) {
		featAliases = append(featAliases, "")
	}
	featSrc := sql.Conjoin(append(sql.SplitConjuncts(stmt.Where), sql.SplitConjuncts(stmt.Having)...))

	return &Decomposed{
		Objects:     q2,
		Predicate:   &sql.SubqueryExpr{Exists: true, Query: q3},
		GroupCols:   cols,
		FeatureCols: FeatureColumns(featSrc, featAliases...),
	}, nil
}

// conjunctIsLocal reports whether conjunct c can be evaluated over L alone:
// it contains no subqueries, every qualified reference targets an L alias,
// and (unless the whole FROM is L) no unqualified references.
func conjunctIsLocal(c sql.Expr, lAliases map[string]bool, fromIsAllL bool) bool {
	local := true
	sql.WalkExpr(c, func(x sql.Expr) {
		switch r := x.(type) {
		case *sql.SubqueryExpr:
			local = false
		case *sql.ColumnRef:
			if r.Qualifier == "" {
				if !fromIsAllL {
					local = false
				}
			} else if !lAliases[r.Qualifier] {
				local = false
			}
		}
	})
	return local
}

// ExtractInner unwraps the common counting form
// SELECT COUNT(*) FROM (inner) and returns inner; if stmt is not of that
// shape it is returned unchanged.
func ExtractInner(stmt *sql.SelectStmt) *sql.SelectStmt {
	if len(stmt.Select) == 1 && !stmt.Select[0].Star && len(stmt.From) == 1 &&
		stmt.From[0].Subquery != nil && stmt.Where == nil &&
		len(stmt.GroupBy) == 0 && stmt.Having == nil {
		if fc, ok := stmt.Select[0].Expr.(*sql.FuncCall); ok && fc.Name == "COUNT" && fc.Star {
			return stmt.From[0].Subquery
		}
	}
	return stmt
}

// ObjectPredicate returns a closure that evaluates the decomposed predicate
// for the i-th row of the materialized object set.
func (ev *Evaluator) ObjectPredicate(d *Decomposed, objects *ResultSet) func(i int) (bool, error) {
	return ev.objectPredicate(d, objects, false)
}

// HoistedObjectPredicate is ObjectPredicate with Q3's WHERE conjuncts
// hoisted to the shallowest FROM depth that binds their aliases, so the
// GL = o.* correlation prunes the outer loop instead of filtering the
// finished L×R join: one object then costs |L|+|R| row visits where the
// full nested loop costs |L|·|R|. Labels are identical to ObjectPredicate's
// whenever no WHERE conjunct can fail; a conjunct that can (a division by
// zero, say) might be skipped on rows an earlier conjunct already rejects,
// so callers must establish infallibility first (qcompile.Program.Bind plus
// Program.Infallible).
func (ev *Evaluator) HoistedObjectPredicate(d *Decomposed, objects *ResultSet) func(i int) (bool, error) {
	return ev.objectPredicate(d, objects, true)
}

func (ev *Evaluator) objectPredicate(d *Decomposed, objects *ResultSet, hoist bool) func(i int) (bool, error) {
	sub, ok := d.Predicate.(*sql.SubqueryExpr)
	hoist = hoist && ok && sub.Exists
	return func(i int) (bool, error) {
		sc := NewScope(nil)
		sc.BindRow(ObjectAlias, objects, i)
		if hoist {
			ev.Stats.SubqueryRuns++
			res, err := ev.run(sub.Query, sc, true)
			if err != nil {
				return false, err
			}
			return len(res.Rows) > 0, nil
		}
		v, err := ev.Eval(d.Predicate, sc)
		if err != nil {
			return false, err
		}
		return v.AsBool()
	}
}

// CountQuery fully evaluates a counting query: the number of result rows of
// the (possibly COUNT(*)-wrapped) statement's inner query. This is the
// exact, slow path the estimators avoid.
func (ev *Evaluator) CountQuery(stmt *sql.SelectStmt) (int, error) {
	inner := ExtractInner(stmt)
	res, err := ev.Run(inner, nil)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

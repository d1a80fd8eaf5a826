package eval

// The reference oracle of the differential and lead tests: naive bottom-up
// evaluation by substitution over ast terms. It shares nothing with the code
// under test but the ast and database packages — no prepared program, no
// plan, no pipeline, no scheduler, not even the error values — so agreement
// with it is evidence about all of them. It has no limits: callers run it
// only on programs that terminate.

import (
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/database"
)

var errOracleNonGround = errors.New("oracle: rule derived a non-ground fact")

// oracle is a finished (or failed) reference evaluation.
type oracle struct {
	store       *database.Store
	newFacts    int   // distinct facts added to store
	derivations int64 // successful rule instantiations, duplicates included
}

// termSpaceNaive runs prog to fixpoint over a clone of edb: every round fires
// every rule, in program order, against the full store, and a derived fact is
// visible as soon as it is derived. Every head predicate gets a relation even
// if nothing is derived for it, as in an evaluated store.
func termSpaceNaive(prog *ast.Program, edb *database.Store) (*oracle, error) {
	o := &oracle{store: edb.Clone()}
	for _, r := range prog.Rules {
		if _, err := o.store.Relation(r.Head.PredKey(), len(r.Head.Args)); err != nil {
			return o, err
		}
	}
	for before := -1; before != o.newFacts; {
		before = o.newFacts
		for _, r := range prog.Rules {
			if err := o.match(r, 0, ast.NewSubst()); err != nil {
				return o, err
			}
		}
	}
	return o, nil
}

// factsByPredicate counts the stored facts of every head predicate of prog.
func (o *oracle) factsByPredicate(prog *ast.Program) map[string]int {
	counts := make(map[string]int)
	for key := range prog.DerivedPredicates() {
		counts[key] = o.store.FactCount(key)
	}
	return counts
}

// match extends s over the body literals of r from position i on and inserts
// the head under every substitution that satisfies them all. A literal is
// instantiated under s; its ground arguments
// select the candidate tuples, and the rest are matched against each.
func (o *oracle) match(r ast.Rule, i int, s ast.Subst) error {
	if i == len(r.Body) {
		head := s.ApplyAtom(r.Head)
		if !ast.IsGroundAtom(head) {
			return fmt.Errorf("%w: %s from %s", errOracleNonGround, head, r)
		}
		o.derivations++
		added, err := o.store.AddFact(head)
		if added {
			o.newFacts++
		}
		return err
	}
	rel := o.store.Existing(r.Body[i].PredKey())
	if rel == nil {
		return nil
	}
	inst := s.ApplyAtom(r.Body[i])
	var cols []int
	var vals []ast.Term
	for j, arg := range inst.Args {
		if ast.IsGround(arg) {
			cols = append(cols, j)
			vals = append(vals, arg)
		}
	}
	cur := rel.Lookup(cols, vals)
	for pos := cur.Next(); pos >= 0; pos = cur.Next() {
		s2 := s.Clone()
		if ast.MatchAtom(inst, rel.Tuple(pos), s2) {
			if err := o.match(r, i+1, s2); err != nil {
				return err
			}
		}
	}
	return nil
}

package datalog

import (
	"fmt"
	"strings"
	"testing"
)

// forestFixture loads the ancestor program over `trees` complete binary par
// trees of the given depth; tree t's nodes are named t<t>_<path>, its root
// t<t>_r.
func forestFixture(t *testing.T, trees, depth int) fixture {
	t.Helper()
	fx := newFixture(t, ancestorProgram)
	var b strings.Builder
	for tr := 0; tr < trees; tr++ {
		level := []string{fmt.Sprintf("t%d_r", tr)}
		for d := 0; d < depth; d++ {
			var next []string
			for _, n := range level {
				for _, side := range []string{"a", "b"} {
					child := n + side
					fmt.Fprintf(&b, "par(%s, %s). ", n, child)
					next = append(next, child)
				}
			}
			level = next
		}
	}
	if err := fx.db.AssertText(b.String()); err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestMagicWorkIndependentOfIrrelevantFacts states Theorem 9.1 as a work
// bound: a magic-rewritten program computes only facts relevant to the query,
// so the work of answering anc(c, Y) inside one tree must not grow with the
// number of other trees in the database. The fact and derivation counts must
// be identical at every scale, and the join work (JoinProbes, ScanRows) — the
// part a bad join order inflates by scanning par — must stay within a
// constant of the smallest database's, at Parallelism 1 and 8 alike.
func TestMagicWorkIndependentOfIrrelevantFacts(t *testing.T) {
	const depth = 5
	for _, strategy := range []Strategy{MagicSets, SupplementaryMagicSets} {
		var base Stats
		for i, trees := range []int{2, 11, 101} { // 1, 10, 100 irrelevant trees
			fx := forestFixture(t, trees, depth)
			for _, p := range []int{1, 8} {
				label := fmt.Sprintf("%s, %d trees, parallelism %d", strategy, trees, p)
				res, err := fx.snap().Query("anc(t0_ra, Y)", Options{Strategy: strategy, Parallelism: p})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want := 1<<depth - 2; len(res.Answers) != want {
					t.Fatalf("%s: %d answers, want %d", label, len(res.Answers), want)
				}
				s := res.Stats
				if i == 0 && p == 1 {
					base = s
					continue
				}
				if s.DerivedFacts != base.DerivedFacts || s.AuxFacts != base.AuxFacts ||
					s.Derivations != base.Derivations || s.Iterations != base.Iterations {
					t.Errorf("%s: derived/aux/derivations/iterations %d/%d/%d/%d; smallest database %d/%d/%d/%d",
						label, s.DerivedFacts, s.AuxFacts, s.Derivations, s.Iterations,
						base.DerivedFacts, base.AuxFacts, base.Derivations, base.Iterations)
				}
				if s.JoinProbes > 2*base.JoinProbes || s.ScanRows > 2*base.ScanRows {
					t.Errorf("%s: %d join probes, %d rows scanned; smallest database %d, %d — work grew with the irrelevant facts",
						label, s.JoinProbes, s.ScanRows, base.JoinProbes, base.ScanRows)
				}
			}
		}
	}
}

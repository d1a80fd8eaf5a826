// Package supmagic constructs the generalized supplementary magic-sets
// rewriting (GSMS, Section 5 of Beeri & Ramakrishnan, "On the Power of
// Magic"): the sip walk of package rewrite with supplementary predicates and
// no index fields. The supplementary predicates sup_r_j store the join of
// the first j-1 body literals of rule r, so the magic and modified rules
// read it instead of re-computing it; each keeps only the variables the
// rest of the rule needs, and sup_r_1 is replaced by magic_p^a itself, as
// throughout the paper's Appendix A.4.
package supmagic

import "repro/internal/rewrite"

// Options configure the generalized supplementary magic-sets rewriting. It
// has none; the type keeps the constructor's signature.
type Options struct{}

// Rewriter is the generalized supplementary magic-sets rewriter.
type Rewriter = rewrite.Walk

// New returns a GSMS rewriter.
func New(Options) *Rewriter { return &rewrite.Walk{Supplementary: true} }

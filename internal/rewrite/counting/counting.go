// Package counting constructs the generalized counting (GC, Section 6) and
// generalized supplementary counting (GSC, Section 7) rewritings of Beeri &
// Ramakrishnan, "On the Power of Magic": the sip walk of package rewrite
// with index fields, without and with supplementary predicates, and the
// semijoin optimization of Section 8.
//
// Counting records, with every auxiliary fact, the derivation context that
// produced it (package rewrite describes the index terms), which lets the
// semijoin optimization delete join literals and drop bound arguments. It
// requires a query with at least one bound argument.
package counting

import "repro/internal/rewrite"

// Options configure the counting rewritings.
type Options struct {
	// Semijoin requests the semijoin optimization of Section 8. It is
	// applied only if the whole adorned program qualifies under Theorem 8.3;
	// the Rewriting's DroppedAnswerBound field reports whether it was.
	Semijoin bool
}

// Rewriter implements the generalized counting (and supplementary counting)
// rewriting.
type Rewriter = rewrite.Walk

// New returns the generalized counting rewriter (GC, Section 6).
func New(opts Options) *Rewriter { return &rewrite.Walk{Indexed: true, Semijoin: opts.Semijoin} }

// NewSupplementary returns the generalized supplementary counting rewriter
// (GSC, Section 7).
func NewSupplementary(opts Options) *Rewriter {
	return &rewrite.Walk{Indexed: true, Supplementary: true, Semijoin: opts.Semijoin}
}

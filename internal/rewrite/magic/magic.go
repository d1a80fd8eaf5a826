// Package magic constructs the generalized magic-sets rewriting (GMS,
// Section 4 of Beeri & Ramakrishnan, "On the Power of Magic"): the sip walk
// of package rewrite with neither supplementary predicates nor index
// fields. Each derived body occurrence that receives bindings through its
// rule's sip gets a magic rule defining magic_q^a, and each rule is guarded
// by its head's magic literal (Theorems 4.1 and 9.1).
//
// By default only the head's guard is kept, the simplification of
// Propositions 4.2/4.3; Options.KeepAllGuards generates the unsimplified
// rules, with a magic guard before every derived body occurrence.
package magic

import "repro/internal/rewrite"

// Options configure the generalized magic-sets rewriting.
type Options struct {
	// KeepAllGuards, when true, inserts a magic guard before every derived
	// body occurrence with bound arguments (the unsimplified construction of
	// Section 4). When false (the default), only the head guard is kept, as
	// justified by Propositions 4.2 and 4.3.
	KeepAllGuards bool
}

// Rewriter is the generalized magic-sets rewriter.
type Rewriter = rewrite.Walk

// New returns a generalized magic-sets rewriter with the given options.
func New(opts Options) *Rewriter { return &rewrite.Walk{KeepAllGuards: opts.KeepAllGuards} }

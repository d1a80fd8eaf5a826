package main

// The oracle: expected answers computed by plain Go over the generated
// inputs. Nothing here imports the engine, so a wrong answer from the engine
// cannot be hidden by the same bug in the checker.

import "sort"

// Graph is a directed graph over string constants.
type Graph map[string][]string

func (g Graph) add(from, to string) { g[from] = append(g[from], to) }

// graphOf builds the graph of the facts of one predicate.
func graphOf(pred string, facts []wireFact) Graph {
	g := Graph{}
	for _, f := range facts {
		if f.Pred == pred {
			g.add(f.Args[0], f.Args[1])
		}
	}
	return g
}

// Reachable returns every node reachable from start by one or more edges,
// sorted: the answers of anc(start, Y) under
//
//	anc(X, Y) :- par(X, Y).  anc(X, Y) :- par(X, Z), anc(Z, Y).
func (g Graph) Reachable(start string) []string {
	seen := map[string]bool{}
	queue := append([]string(nil), g[start]...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		queue = append(queue, g[n]...)
	}
	return sortedKeys(seen)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// relation is a binary relation indexed by its first column.
type relation map[string]map[string]bool

func (r relation) add(x, y string) bool {
	if r[x][y] {
		return false
	}
	if r[x] == nil {
		r[x] = map[string]bool{}
	}
	r[x][y] = true
	return true
}

func relationOf(g Graph) relation {
	r := relation{}
	for x, ys := range g {
		for _, y := range ys {
			r.add(x, y)
		}
	}
	return r
}

// sameGeneration computes the least relation with
//
//	sg(X, Y) :- flat(X, Y).
//	sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
//
// by naive iteration to a fixpoint.
func sameGeneration(up, flat, down Graph) relation {
	sg := relationOf(flat)
	for changed := true; changed; {
		changed = false
		for x, z1s := range up {
			for _, z1 := range z1s {
				for z2 := range sg[z1] {
					for _, y := range down[z2] {
						if sg.add(x, y) {
							changed = true
						}
					}
				}
			}
		}
	}
	return sg
}

// nestedSameGeneration answers p(start, Y) for the nested same-generation
// program of the paper's Appendix A.1:
//
//	p(X, Y) :- b1(X, Y).
//	p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
//
// with sg as above, again by naive iteration over the whole relation.
func nestedSameGeneration(up, flat, down, b1, b2 Graph, start string) []string {
	sg := sameGeneration(up, flat, down)
	p := relationOf(b1)
	for changed := true; changed; {
		changed = false
		for x, z1s := range sg {
			for z1 := range z1s {
				for z2 := range p[z1] {
					for _, y := range b2[z2] {
						if p.add(x, y) {
							changed = true
						}
					}
				}
			}
		}
	}
	return sortedKeys(p[start])
}

// reversedList renders the reversal of elems as a list term in source
// syntax, the one answer of reverse([e0, …], Y).
func reversedList(elems []string) string {
	s := "["
	for i := len(elems) - 1; i >= 0; i-- {
		s += elems[i]
		if i > 0 {
			s += ", "
		}
	}
	return s + "]"
}

// sameSet reports whether got, in any order, is exactly the sorted set want.
func sameSet(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]string(nil), got...)
	sort.Strings(g)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

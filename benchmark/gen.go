package main

// The deterministic input generator. Everything the program under test
// receives — node names, fact order, query constants, transaction bodies —
// is derived from the -seed argument here and nowhere else; the expected
// answers come from the plain-Go oracle in oracle.go, never from the engine.
//
// The seed permutes names, insertion order and the sequence of keys; it does
// not change shapes or sizes, so the machine-independent counts (derived
// facts, auxiliary facts, WAL bytes per fact) are the same for every seed
// and can be compared against committed golden values.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// The served rule program: right-linear ancestor over the big relation par,
// and the same rules over the small control relation cpar. A query on canc
// does the same derivations as one on anc, but its EDB is exactly the
// relevant set, so the difference between the two is what the irrelevant
// facts cost.
const servedProgram = `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
canc(X, Y) :- cpar(X, Y).
canc(X, Y) :- cpar(X, Z), canc(Z, Y).
`

const (
	mainQuery    = "anc(n0, Y)"
	controlQuery = "canc(n0, Y)"
)

// Forest is a set of complete binary trees over one binary predicate:
// edges point from parent to child.
type Forest struct {
	Pred  string
	Trees int
	Depth int
	// Names maps node id to its constant. Node ids are tree-major, each
	// tree in heap order: node k of tree t has id t*perTree+k and children
	// 2k+1, 2k+2.
	Names []string
	// Edges are (parent, child) node ids in insertion order.
	Edges [][2]int32
}

func perTree(depth int) int { return 1<<(depth+1) - 1 }

// NewForest generates trees × depth. Names are the prefix plus the node's
// label, a seeded permutation of the node ids, zero-padded to digits so every
// constant has the same width. With shuffle the edges are inserted in seeded
// order; without, tree-major and parent before child.
func NewForest(rng *rand.Rand, pred, prefix string, digits, trees, depth int, shuffle bool) *Forest {
	pt := perTree(depth)
	f := &Forest{Pred: pred, Trees: trees, Depth: depth, Names: make([]string, trees*pt)}
	for id, label := range rng.Perm(len(f.Names)) {
		f.Names[id] = fmt.Sprintf("%s%0*d", prefix, digits, label)
	}
	for t := 0; t < trees; t++ {
		for k := 0; 2*k+2 < pt; k++ {
			f.Edges = append(f.Edges,
				[2]int32{int32(t*pt + k), int32(t*pt + 2*k + 1)},
				[2]int32{int32(t*pt + k), int32(t*pt + 2*k + 2)})
		}
	}
	if shuffle {
		rng.Shuffle(len(f.Edges), func(i, j int) { f.Edges[i], f.Edges[j] = f.Edges[j], f.Edges[i] })
	}
	return f
}

// Depth1 returns the ids of the nodes one level below the roots.
func (f *Forest) Depth1() []int32 {
	pt := perTree(f.Depth)
	out := make([]int32, 0, 2*f.Trees)
	for t := 0; t < f.Trees; t++ {
		out = append(out, int32(t*pt+1), int32(t*pt+2))
	}
	return out
}

// Facts renders the edges [from, to) as wire facts.
func (f *Forest) Facts(from, to int) []wireFact {
	out := make([]wireFact, 0, to-from)
	for _, e := range f.Edges[from:to] {
		out = append(out, wireFact{Pred: f.Pred, Args: [2]string{f.Names[e[0]], f.Names[e[1]]}})
	}
	return out
}

// wireFact is one binary fact of a /v1/txn body.
type wireFact struct {
	Pred string
	Args [2]string
}

// appendFacts appends a JSON array of facts. Bodies are built by hand so the
// byte stream is a pure function of the inputs (encoding/json would do, but
// map ordering and escaping rules are one more thing to keep stable).
func appendFacts(b []byte, facts []wireFact) []byte {
	b = append(b, '[')
	for i, f := range facts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"pred":"`...)
		b = append(b, f.Pred...)
		b = append(b, `","args":["`...)
		b = append(b, f.Args[0]...)
		b = append(b, `","`...)
		b = append(b, f.Args[1]...)
		b = append(b, `"]}`...)
	}
	return append(b, ']')
}

// txnBody renders one /v1/txn request.
func txnBody(asserts, retracts []wireFact) []byte {
	b := make([]byte, 0, 64+48*(len(asserts)+len(retracts)))
	b = append(b, '{')
	if len(retracts) > 0 {
		b = append(b, `"retracts":`...)
		b = appendFacts(b, retracts)
	}
	if len(asserts) > 0 {
		if len(retracts) > 0 {
			b = append(b, ',')
		}
		b = append(b, `"asserts":`...)
		b = appendFacts(b, asserts)
	}
	return append(b, '}')
}

// queryBody renders one prepared /v1/query request.
func queryBody(preparedID, arg string) []byte {
	b := make([]byte, 0, 64)
	b = append(b, `{"prepared_id":"`...)
	b = append(b, preparedID...)
	b = append(b, `","args":["`...)
	b = append(b, arg...)
	return append(b, `"]}`...)
}

// Op is one generated write: the request body, and the facts in it — kept
// for the traced run, which commits them through the library, and for the
// acked-history oracle.
type Op struct {
	Body              []byte
	Asserts, Retracts []wireFact
}

// readKeys draws n keys uniformly from the candidates.
func readKeys(rng *rand.Rand, candidates []int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = candidates[rng.Intn(len(candidates))]
	}
	return out
}

// The shapes of the served workloads. The forest is the shared EDB of
// read_point and mixed_rw: a query from a depth-1 node is relevant to 62 of
// its 25,200 facts. The control forest holds two trees of the same shape, so
// the same query on it is relevant to 62 of 252 facts.
const (
	forestTrees  = 200
	forestDepth  = 6
	controlTrees = 2
	// answersPerRead is the subtree below a depth-1 node: 2^6-2 nodes.
	answersPerRead = 62
)

// scratchOps generates one lap of the mixed_rw writer's stream, which the
// writer cycles through: transaction 2k asserts four par edges among scratch
// nodes (names outside every forest), and transaction 2k+1 retracts them, so
// the relation's size is steady and every commit writes par. A fixed pool of
// groups, so the symbol table stops growing after the first lap.
func scratchOps(rng *rand.Rand) []Op {
	const pool = 256
	ops := make([]Op, 0, 2*pool)
	for _, label := range rng.Perm(pool) {
		var g []wireFact
		for e := 0; e < 4; e++ {
			g = append(g, wireFact{Pred: "par", Args: [2]string{
				"s" + strconv.Itoa(label*8+e), "s" + strconv.Itoa(label*8+e+1)}})
		}
		ops = append(ops, Op{Asserts: g, Body: txnBody(g, nil)}, Op{Retracts: g, Body: txnBody(nil, g)})
	}
	return ops
}

// ingestPlan is durable_ingest's input: a stream of tree edges cut into bulk
// transactions and, per connection, small commits. Every connection owns its
// own trees, so the final state does not depend on how the connections
// interleave.
type ingestPlan struct {
	Forest *Forest
	Bulk   []Op
	Small  [][]Op // per connection
}

const (
	bulkFacts   = 10000
	smallFacts  = 8
	ingestConns = 2
)

// ingestCounts is how many bulk transactions, and small commits per
// connection, durable_ingest does in -seconds.
func ingestCounts(e *env) (bulkTxns, smallPerConn int) {
	return max(1, int(math.Round(e.sizes.BulkTxnsPerSec*e.seconds))), max(1, int(math.Round(e.sizes.SmallPerSec*e.seconds)))
}

// newIngestPlan generates bulkTxns bulk transactions and smallPerConn small
// commits for each of the two connections, over one forest big enough to
// feed them. Edges are taken tree-major, so trees fill up one after another.
func newIngestPlan(rng *rand.Rand, bulkTxns, smallPerConn int) *ingestPlan {
	edges := bulkTxns*bulkFacts + ingestConns*smallPerConn*smallFacts
	edgesPerTree := perTree(forestDepth) - 1
	trees := (edges + edgesPerTree - 1) / edgesPerTree
	// Ingest order is part of the workload (trees complete one after
	// another); only the labels are seeded.
	f := NewForest(rng, "par", "n", 7, trees, forestDepth, false)
	p := &ingestPlan{Forest: f, Small: make([][]Op, ingestConns)}
	next := 0
	take := func(n int) Op {
		facts := f.Facts(next, next+n)
		next += n
		return Op{Asserts: facts, Body: txnBody(facts, nil)}
	}
	for i := 0; i < bulkTxns; i++ {
		p.Bulk = append(p.Bulk, take(bulkFacts))
	}
	for c := range p.Small {
		for i := 0; i < smallPerConn; i++ {
			p.Small[c] = append(p.Small[c], take(smallFacts))
		}
	}
	return p
}

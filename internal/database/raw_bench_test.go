package database

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ast"
)

// BenchmarkRawAddFact10k isolates the storage layer's share of
// BenchmarkBatchAssert (see bench_test.go at the repository root): loading
// 10k pre-built ground atoms through the batch entry point Store.Apply
// versus a per-fact AddFact loop, with no facade-level argument boxing or
// transaction buffering in the way. The gap is the value of whole-batch
// validation + bulk interning + bulk row insertion per se.
func BenchmarkRawAddFact10k(b *testing.B) {
	atoms := make([]ast.Atom, 10000)
	for i := range atoms {
		atoms[i] = ast.NewAtom("edge", ast.S(fmt.Sprintf("v%d", i)), ast.S(fmt.Sprintf("v%d", (i*13+7)%10000)))
	}
	b.Run("addfact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStore()
			for _, a := range atoms {
				if _, err := s.AddFact(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStore()
			if _, _, err := s.Apply(nil, atoms); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFactMemory attributes the retained heap of a committed arity-2
// relation of rows=N facts with one built column index, in bytes per fact:
// the row slab, the duplicate-detection table, the indexes, the terms (0:
// a relation stores none, and the unit stays so records remain comparable)
// and the symbol table. Each part is measured as the live heap it frees
// when dropped, after a full collection, so the figures include allocator
// rounding and slice headroom.
func BenchmarkFactMemory(b *testing.B) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, n := range []int{25_000, 250_000} {
		b.Run(fmt.Sprintf("rows=%dk", n/1000), func(b *testing.B) {
			var parts [5]float64
			for i := 0; i < b.N; i++ {
				s := NewStore()
				atoms := make([]ast.Atom, n)
				for j := range atoms {
					atoms[j] = ast.NewAtom("par", ast.S(fmt.Sprintf("n%d", j/2)), ast.S(fmt.Sprintf("n%d", j)))
				}
				if _, _, err := s.Apply(nil, atoms); err != nil {
					b.Fatal(err)
				}
				atoms = nil
				rel := s.Existing("par")
				rel.LookupIDs([]int{0}, rel.Row(0)[:1])
				drops := []func(){
					func() { rel.rows = nil },
					func() { rel.dedup = colIndex{} },
					func() { rel.indexes.Store(nil) },
					func() {}, // a relation stores no terms
					func() { s, rel = nil, nil },
				}
				before := live()
				for k, drop := range drops {
					drop()
					after := live()
					parts[k] += float64(int64(before)-int64(after)) / float64(n)
					before = after
				}
			}
			for k, unit := range []string{"B/fact-rows", "B/fact-dedup", "B/fact-index", "B/fact-terms", "B/fact-symbols"} {
				b.ReportMetric(parts[k]/float64(b.N), unit)
			}
		})
	}
}

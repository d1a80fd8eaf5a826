// Typed answer values: the v2 result representation of the engine.
//
// A Value is one answer term surfaced directly from the engine's interned
// constants: the store keeps every tuple as a row of intern.IDs, and a
// Value wraps one of those IDs together with a read view of the symbol
// table. Kind, Int and Symbol are O(1) metadata lookups — no term is
// materialized and nothing is rendered until String is called, which is
// what lets a caller consume integer or symbol answers without the old
// ID → term → string round-trip.
package datalog

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/intern"
)

// Kind classifies a Value.
type Kind uint8

// The value kinds.
const (
	// Symbol is a symbolic constant such as john.
	Symbol Kind = iota
	// Int is an integer constant.
	Int
	// Compound is a function symbol applied to arguments, e.g. cons(a, []).
	Compound
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Compound:
		return "compound"
	default:
		return "symbol"
	}
}

// Value is a single typed answer term. The zero Value is the empty symbol.
// Values are immutable and safe for concurrent use; they remain valid after
// the query that produced them returns (the symbol table backing them is
// append-only), including across later asserts and retracts.
type Value struct {
	// rd is the symbol-table view id is read through; nil only in the zero
	// Value.
	rd *intern.Reader
	id intern.ID
}

// valueOfID wraps an interned ID. The reader is shared by every value of
// one result.
func valueOfID(rd *intern.Reader, id intern.ID) Value { return Value{rd: rd, id: id} }

// Kind reports which kind of term the value holds.
func (v Value) Kind() Kind {
	if v.rd == nil {
		return Symbol // the zero Value is the empty symbol
	}
	switch v.rd.Kind(v.id) {
	case intern.KindInt:
		return Int
	case intern.KindComp:
		return Compound
	default:
		return Symbol
	}
}

// Symbol returns the name of a symbolic constant, reporting false for any
// other kind.
func (v Value) Symbol() (string, bool) {
	if v.rd == nil {
		return "", true // the zero Value is the empty symbol
	}
	if v.rd.Kind(v.id) != intern.KindSym {
		return "", false
	}
	return v.rd.Term(v.id).(ast.Sym).Name, true
}

// Int returns the value of an integer constant, reporting false for any
// other kind.
func (v Value) Int() (int64, bool) {
	if v.rd == nil {
		return 0, false
	}
	return v.rd.IntValue(v.id)
}

// Compound returns the functor and arguments of a compound value, reporting
// false for the constant kinds. The argument values share the parent's
// symbol-table view.
func (v Value) Compound() (functor string, args []Value, ok bool) {
	if v.rd == nil {
		return "", nil, false
	}
	functor, ids, ok := v.rd.CompoundParts(v.id)
	if !ok {
		return "", nil, false
	}
	args = make([]Value, len(ids))
	for i, id := range ids {
		args[i] = valueOfID(v.rd, id)
	}
	return functor, args, true
}

// String renders the value in source syntax (lists as [a, b], everything
// else as f(args)). Rendering happens on demand: a caller that consumes
// values through Kind/Int/Symbol/Compound never pays for it.
func (v Value) String() string {
	if v.rd == nil {
		return ""
	}
	return v.rd.Term(v.id).String()
}

// Row is one streamed answer: the typed values of the query's free
// variables, in the order those variables appear in the query. It is the
// unit PreparedQuery.Stream yields.
type Row []Value

// Strings renders every value of the row in source syntax.
func (r Row) Strings() []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.String()
	}
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string { return "(" + strings.Join(r.Strings(), ", ") + ")" }

// rowsFromIDs wraps projected ID rows as typed rows sharing one table view.
func rowsFromIDs(rd *intern.Reader, idRows [][]intern.ID) []Row {
	out := make([]Row, len(idRows))
	for i, ids := range idRows {
		row := make(Row, len(ids))
		for j, id := range ids {
			row[j] = valueOfID(rd, id)
		}
		out[i] = row
	}
	return out
}

// answersFromRows builds the materialized answer list. Nothing is rendered:
// Value.String does that on demand.
func answersFromRows(rows []Row) []Answer {
	out := make([]Answer, len(rows))
	for i, r := range rows {
		out[i] = Answer{Vals: r}
	}
	return out
}

// Package storage implements the columnar storage substrate that Taster
// runs on: typed column vectors, row batches, tables with lazily computed
// statistics, a catalog, and a simulated-cluster cost model.
//
// The paper runs over Spark/HDFS; this package is the single-process
// replacement described in DESIGN.md §2. All sizes are byte-accurate so that
// storage quotas and I/O costs behave like the paper's.
package storage

import "fmt"

// Type is the type of a column.
type Type uint8

// Supported column types. There are no NULLs in this engine: generators
// always fill every column, which matches the benchmark datasets the paper
// evaluates on.
const (
	Int64 Type = iota
	Float64
	String
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Numeric reports whether the type supports arithmetic and aggregation.
func (t Type) Numeric() bool { return t == Int64 || t == Float64 }

// Value is a single dynamically typed scalar, used for constants in
// expressions and for row-at-a-time interfaces (test helpers, result rows).
type Value struct {
	Typ Type
	I   int64
	F   float64
	S   string
	B   bool
}

// IntValue returns an Int64 Value.
func IntValue(v int64) Value { return Value{Typ: Int64, I: v} }

// FloatValue returns a Float64 Value.
func FloatValue(v float64) Value { return Value{Typ: Float64, F: v} }

// StringValue returns a String Value.
func StringValue(v string) Value { return Value{Typ: String, S: v} }

// BoolValue returns a Bool Value.
func BoolValue(v bool) Value { return Value{Typ: Bool, B: v} }

// AsFloat converts any numeric value to float64; it panics on non-numeric
// types, which indicates a planner bug rather than a user error.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	}
	panic("storage: AsFloat on non-numeric value " + v.Typ.String())
}

// Equal reports deep equality of two values (types must match too).
func (v Value) Equal(o Value) bool {
	if v.Typ != o.Typ {
		return false
	}
	switch v.Typ {
	case Int64:
		return v.I == o.I
	case Float64:
		return v.F == o.F
	case String:
		return v.S == o.S
	case Bool:
		return v.B == o.B
	}
	return false
}

// Less reports v < o for same-typed, ordered values. Bools order false<true.
func (v Value) Less(o Value) bool {
	switch v.Typ {
	case Int64:
		return v.I < o.I
	case Float64:
		return v.F < o.F
	case String:
		return v.S < o.S
	case Bool:
		return !v.B && o.B
	}
	return false
}

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.Typ {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	case Bool:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// Col describes one column of a schema: a (possibly qualified) name plus a
// type. Names are qualified as "table.column" once bound to the catalog.
type Col struct {
	Name string
	Typ  Type
}

// Schema is an ordered list of columns.
type Schema []Col

// Index returns the position of the named column, or -1. It first tries an
// exact match, then an unqualified suffix match ("l_qty" matches
// "lineitem.l_qty" when unambiguous).
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	match := -1
	for i, c := range s {
		if suffixMatch(c.Name, name) {
			if match >= 0 {
				return -1 // ambiguous
			}
			match = i
		}
	}
	return match
}

func suffixMatch(qualified, name string) bool {
	if len(qualified) <= len(name) {
		return false
	}
	cut := len(qualified) - len(name)
	return qualified[cut-1] == '.' && qualified[cut:] == name
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema that can be mutated independently.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Concat returns the concatenation s ++ o (used by joins).
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// Equal reports whether two schemas have identical names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

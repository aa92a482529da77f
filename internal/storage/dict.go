package storage

// MaxDictSize caps a column dictionary: a string column with more distinct
// values than this is not coded at all. Codes pay where many rows share few
// values (flags, priorities, nation names, brands); a column of names or
// comments would carry a dictionary the size of the column, and every
// consumer's per-dictionary array with it.
const MaxDictSize = 1 << 12

// Dict is the dictionary of one table column's strings: its distinct values
// in the order the table's rows first showed them — so a given row sequence
// always yields the same codes — and the reverse map encoding needs. A
// published dictionary never changes: every partition of a table version,
// every later version that brought no new value, and every batch, sample and
// join table copied out of them share one *Dict, and consumers compare
// dictionaries by pointer. An append that does bring new values encodes
// against an extended copy (Table.Append); the old versions keep theirs.
//
// Codes never order, size or price anything: Vector.Bytes, row widths, the
// codecs and the cost model read Str alone.
//
//taster:immutable
type Dict struct {
	vals  []string
	index map[string]uint32
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.vals) }

func newDict(capacity int) *Dict {
	return &Dict{vals: make([]string, 0, capacity), index: make(map[string]uint32, capacity)}
}

// cloneDict copies d with room for more values.
func cloneDict(d *Dict) *Dict {
	c := newDict(len(d.vals) + 8)
	c.vals = append(c.vals, d.vals...)
	for code, s := range c.vals {
		c.index[s] = uint32(code)
	}
	return c
}

// encodeStrings codes the string vector v against base, the published
// dictionary of the column v's rows are joining (nil: a new column, a fresh
// dictionary). It returns the codes, row-aligned with v.Str, and the
// dictionary they index: base itself while v brings no new value, an
// extended copy once it does, a fresh one for nil base. Past MaxDictSize
// distinct values the column gives up and both results are nil. A source
// already coded under another dictionary is translated code by code, one
// map lookup per distinct value instead of one per row.
//
//taster:mutator construction: intern writes only to a dictionary this call made or cloned (owned), never to the published base
func encodeStrings(base *Dict, v *Vector) ([]uint32, *Dict) {
	if base != nil && v.Dict == base {
		return v.Code, base
	}
	d, owned := base, false
	if d == nil {
		d, owned = newDict(16), true
	}
	// intern returns s's code, extending d — a private copy from the first
	// new value on — and fails at the cap.
	intern := func(s string) (uint32, bool) {
		if c, ok := d.index[s]; ok {
			return c, true
		}
		if len(d.vals) >= MaxDictSize {
			return 0, false
		}
		if !owned {
			d, owned = cloneDict(d), true
		}
		c := uint32(len(d.vals))
		d.vals = append(d.vals, s)
		d.index[s] = c
		return c, true
	}
	// A column of names or comments overflows within the first few thousand
	// rows: the full-length code array waits until the column has outlived
	// that.
	n := len(v.Str)
	codes := make([]uint32, min(n, 2*MaxDictSize))
	if v.Dict != nil {
		const unseen = ^uint32(0)
		to := make([]uint32, v.Dict.Len())
		for i := range to {
			to[i] = unseen
		}
		for i, sc := range v.Code {
			if i == len(codes) {
				codes = append(make([]uint32, 0, n), codes...)[:n]
			}
			if to[sc] == unseen {
				c, ok := intern(v.Dict.vals[sc])
				if !ok {
					return nil, nil
				}
				to[sc] = c
			}
			codes[i] = to[sc]
		}
		return codes, d
	}
	for i, s := range v.Str {
		if i == len(codes) {
			codes = append(make([]uint32, 0, n), codes...)[:n]
		}
		c, ok := intern(s)
		if !ok {
			return nil, nil
		}
		codes[i] = c
	}
	return codes, d
}

// codedColumns returns cols with every string column coded where its
// cardinality allows, and the per-column dictionaries (nil: not a string
// column, or one that gave up). Columns that arrive coded — rows copied out
// of a table through the Vector methods — keep their dictionary and cost
// nothing; the others are encoded behind a fresh vector header, because the
// caller's vector may be another table's column, frozen and shared.
func codedColumns(cols []*Vector) ([]*Vector, []*Dict) {
	out := make([]*Vector, len(cols))
	dicts := make([]*Dict, len(cols))
	for i, c := range cols {
		out[i] = c
		if c.Typ != String {
			continue
		}
		if c.Dict == nil {
			if codes, d := encodeStrings(nil, c); d != nil {
				out[i] = &Vector{Typ: String, Str: c.Str, Code: codes, Dict: d}
			}
		}
		dicts[i] = out[i].Dict
	}
	return out, dicts
}

// recoded is v coded under the dictionary encodeStrings chose against base,
// or v without codes when the column is — or just became — uncoded.
func recoded(base *Dict, v *Vector) (*Vector, *Dict) {
	if base != nil {
		if codes, d := encodeStrings(base, v); d != nil {
			return &Vector{Typ: String, Str: v.Str, Code: codes, Dict: d}, d
		}
	}
	if v.Dict == nil {
		return v, nil
	}
	return &Vector{Typ: String, Str: v.Str}, nil
}

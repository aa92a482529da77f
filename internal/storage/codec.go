package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary table codec. This is the on-disk representation of a materialized
// sample's row payload inside the synopsis warehouse (internal/persist): a
// self-contained little-endian record of schema, partitioning and column
// data. The layout is mirrored exactly by (*Table).EncodedBytes so storage
// quotas charge what disk actually stores.
//
// Layout (all integers little-endian). The header is partition-aware: the
// per-partition row counts and epochs round-trip, so the disk tier can
// spill and fault a table without flattening its partition layout or its
// per-partition freshness state.
//
//	u32 len + name
//	u32 partitions
//	u32 partRows (per-partition row capacity; 0 = unbounded)
//	u64 epoch
//	u32 numCols
//	u64 numRows
//	per partition: u64 rows, u64 epoch
//	per column: u32 len + name, u8 type
//	per column payload (rows concatenated in partition order):
//	  Int64/Float64: 8 bytes per row
//	  Bool:          1 byte per row
//	  String:        per row u32 len + bytes

// EncodedBytes returns the exact size EncodeTable produces for this table.
// It is the serialized-size half of the SizeBytes contract: synopsis
// payloads are charged against storage quotas at their on-disk size.
func (t *Table) EncodedBytes() int64 {
	n := int64(4+len(t.Name)) + 4 + 4 + 8 + 4 + 8 + 16*int64(len(t.parts))
	for _, c := range t.schema {
		n += 4 + int64(len(c.Name)) + 1
	}
	for _, p := range t.parts {
		for _, v := range p.cols {
			switch v.Typ {
			case Int64, Float64:
				n += int64(v.Len()) * 8
			case Bool:
				n += int64(v.Len())
			case String:
				for _, s := range v.Str {
					n += 4 + int64(len(s))
				}
			}
		}
	}
	return n
}

// EncodeTable appends the table's binary encoding to dst and returns the
// extended slice.
func EncodeTable(dst []byte, t *Table) []byte {
	dst = appendStr(dst, t.Name)
	dst = appendU32(dst, uint32(len(t.parts)))
	dst = appendU32(dst, uint32(t.partRows))
	dst = appendU64(dst, t.epoch)
	dst = appendU32(dst, uint32(len(t.schema)))
	dst = appendU64(dst, uint64(t.rows))
	for _, p := range t.parts {
		dst = appendU64(dst, uint64(p.rows))
		dst = appendU64(dst, p.epoch)
	}
	for _, c := range t.schema {
		dst = appendStr(dst, c.Name)
		dst = append(dst, byte(c.Typ))
	}
	for i := range t.schema {
		for _, p := range t.parts {
			v := p.cols[i]
			switch v.Typ {
			case Int64:
				for _, x := range v.I64 {
					dst = appendU64(dst, uint64(x))
				}
			case Float64:
				for _, x := range v.F64 {
					dst = appendU64(dst, math.Float64bits(x))
				}
			case Bool:
				for _, x := range v.B {
					if x {
						dst = append(dst, 1)
					} else {
						dst = append(dst, 0)
					}
				}
			case String:
				for _, s := range v.Str {
					dst = appendStr(dst, s)
				}
			}
		}
	}
	return dst
}

// DecodeTable reverses EncodeTable, consuming bytes from r. It validates
// every length against the remaining input so truncated or corrupt payloads
// fail cleanly instead of panicking.
func DecodeTable(r *Reader) (*Table, error) {
	name, err := r.Str()
	if err != nil {
		return nil, fmt.Errorf("storage: decode table: %w", err)
	}
	nparts, err := r.U32()
	if err != nil {
		return nil, err
	}
	partRows, err := r.U32()
	if err != nil {
		return nil, err
	}
	epoch, err := r.U64()
	if err != nil {
		return nil, err
	}
	ncols, err := r.U32()
	if err != nil {
		return nil, err
	}
	nrows64, err := r.U64()
	if err != nil {
		return nil, err
	}
	// Plausibility bounds BEFORE any shape-sized allocation: every partition
	// costs 16 header bytes, every column ≥5 schema bytes and every row ≥1
	// payload byte per column, so a crafted header claiming a shape the
	// remaining payload cannot possibly hold is rejected without allocating
	// for it.
	if int64(nparts)*16 > int64(r.Remaining()) {
		return nil, fmt.Errorf("storage: decode table %s: %d partitions exceed %d payload bytes", name, nparts, r.Remaining())
	}
	partCounts := make([]int, nparts)
	partEpochs := make([]uint64, nparts)
	var partSum uint64
	for i := range partCounts {
		pr, err := r.U64()
		if err != nil {
			return nil, err
		}
		pe, err := r.U64()
		if err != nil {
			return nil, err
		}
		if pr > nrows64 {
			return nil, fmt.Errorf("storage: decode table %s: partition %d claims %d of %d rows", name, i, pr, nrows64)
		}
		partCounts[i], partEpochs[i] = int(pr), pe
		partSum += pr
	}
	if partSum != nrows64 {
		return nil, fmt.Errorf("storage: decode table %s: partition rows sum %d != %d total", name, partSum, nrows64)
	}
	if int64(ncols)*5 > int64(r.Remaining()) {
		return nil, fmt.Errorf("storage: decode table %s: %d columns exceed %d payload bytes", name, ncols, r.Remaining())
	}
	nrows := int(nrows64)
	schema := make(Schema, ncols)
	var minRowBytes int64
	for i := range schema {
		cn, err := r.Str()
		if err != nil {
			return nil, err
		}
		tb, err := r.U8()
		if err != nil {
			return nil, err
		}
		if Type(tb) > Bool {
			return nil, fmt.Errorf("storage: decode table %s: unknown column type %d", name, tb)
		}
		schema[i] = Col{Name: cn, Typ: Type(tb)}
		switch Type(tb) {
		case Int64, Float64:
			minRowBytes += 8
		case Bool:
			minRowBytes += 1
		case String:
			minRowBytes += 4
		}
	}
	if nrows64 > 1<<40 ||
		(minRowBytes > 0 && nrows64 > uint64(r.Remaining())/uint64(minRowBytes)) {
		return nil, fmt.Errorf("storage: decode table %s: %d rows exceed %d payload bytes", name, nrows64, r.Remaining())
	}
	cols := make([]*Vector, ncols)
	for i, c := range schema {
		v := NewVector(c.Typ, nrows)
		switch c.Typ {
		case Int64:
			for j := 0; j < nrows; j++ {
				x, err := r.U64()
				if err != nil {
					return nil, err
				}
				v.I64 = append(v.I64, int64(x))
			}
		case Float64:
			for j := 0; j < nrows; j++ {
				x, err := r.U64()
				if err != nil {
					return nil, err
				}
				v.F64 = append(v.F64, math.Float64frombits(x))
			}
		case Bool:
			for j := 0; j < nrows; j++ {
				b, err := r.U8()
				if err != nil {
					return nil, err
				}
				v.B = append(v.B, b != 0)
			}
		case String:
			for j := 0; j < nrows; j++ {
				s, err := r.Str()
				if err != nil {
					return nil, err
				}
				v.Str = append(v.Str, s)
			}
		}
		cols[i] = v
	}
	// Rebuild the recorded partition layout over the decoded columns
	// (zero-copy slices), restoring each partition's epoch. The payload holds
	// strings only; codes are assigned here as at any table construction.
	cols, dicts := codedColumns(cols)
	parts := make([]*Partition, len(partCounts))
	lo := 0
	for i, pr := range partCounts {
		pc := make([]*Vector, len(cols))
		for c, v := range cols {
			pc[c] = v.Slice(lo, lo+pr)
		}
		parts[i] = &Partition{cols: pc, rows: pr, epoch: partEpochs[i]}
		lo += pr
	}
	if len(parts) == 0 {
		parts = []*Partition{{cols: cols}}
	}
	t := newTableFromParts(name, schema, parts, dicts, int(partRows), epoch)
	t.colsView = cols
	return t, nil
}

// Reader consumes a binary payload with bounds checking; every persistence
// decoder shares it so truncated inputs surface as errors, never panics.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining returns the unconsumed byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("storage: truncated payload at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("storage: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("storage: truncated payload at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// F64 reads a little-endian float64.
func (r *Reader) F64() (float64, error) {
	v, err := r.U64()
	return math.Float64frombits(v), err
}

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() (string, error) {
	n, err := r.U32()
	if err != nil {
		return "", err
	}
	if int(n) > r.Remaining() {
		return "", fmt.Errorf("storage: string length %d exceeds remaining %d bytes", n, r.Remaining())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Bytes reads n raw bytes.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || n > r.Remaining() {
		return nil, fmt.Errorf("storage: byte run %d exceeds remaining %d", n, r.Remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// appendU32 appends v little-endian.
func appendU32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

// appendU64 appends v little-endian.
func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

// appendStr appends a u32-length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendU32 exposes the little-endian u32 writer to the persistence codecs.
func AppendU32(dst []byte, v uint32) []byte { return appendU32(dst, v) }

// AppendU64 exposes the little-endian u64 writer to the persistence codecs.
func AppendU64(dst []byte, v uint64) []byte { return appendU64(dst, v) }

// AppendF64 appends the IEEE-754 bits of v little-endian.
func AppendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

// AppendStr appends a u32-length-prefixed string.
func AppendStr(dst []byte, s string) []byte { return appendStr(dst, s) }

package storage

import (
	"maps"
	"slices"
	"strings"
)

// StatsOracle and SameStats expose the statistics oracle to the external
// test package, which can import the workload generators this package
// cannot.
var (
	StatsOracle = statsOracle
	SameStats   = sameStats
)

// Computed lists the statistics this version has computed so far: the
// columns whose group part and whose moment part were asked for, and the
// column sets shapeOf counted, each set's names joined by "," in sorted
// order. It reads the caches without their Once, so call it only when
// nothing is computing on the version.
func (t *Table) Computed() (groups, moments, sets []string) {
	for i := range t.stats {
		c := &t.stats[i]
		if c.groups != nil {
			groups = append(groups, t.schema[i].Name)
		}
		if c.moments != nil {
			moments = append(moments, t.schema[i].Name)
		}
	}
	t.groupsMu.Lock()
	defer t.groupsMu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(t.groups)) {
		sets = append(sets, strings.ReplaceAll(key, "\x00", ","))
	}
	return groups, moments, sets
}

// TableOfParts assembles a table version from one column set per partition,
// empty partitions allowed anywhere: a layout the constructors only leave
// behind for an empty table.
func TableOfParts(name string, schema Schema, parts ...[]*Vector) *Table {
	ps := make([]*Partition, len(parts))
	for p, cols := range parts {
		ps[p] = &Partition{cols: cols, rows: cols[0].Len()}
	}
	return newTableFromParts(name, schema, ps, make([]*Dict, len(schema)), 0, 0)
}

package storage

import (
	"slices"
	"strconv"
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
// column sets of several columns whose group part was, each set's names
// sorted and joined by ",". It reads the caches without their Once, so call
// it only when nothing is computing on the version.
func (t *Table) Computed() (groups, moments, sets []string) {
	for i := range t.stats {
		if t.stats[i].moments != nil {
			moments = append(moments, t.schema[i].Name)
		}
	}
	t.keyIdxMu.Lock()
	defer t.keyIdxMu.Unlock()
	for key, e := range t.keyIdx {
		if e.stats == nil {
			continue
		}
		var names []string
		for _, f := range strings.Split(strings.TrimSuffix(key, ","), ",") {
			c, _ := strconv.Atoi(f)
			names = append(names, t.schema[c].Name)
		}
		if len(names) == 1 {
			groups = append(groups, names[0])
		} else {
			sets = append(sets, strings.Join(slices.Sorted(slices.Values(names)), ","))
		}
	}
	slices.Sort(groups)
	slices.Sort(sets)
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

package sim

import (
	"cmp"
	"slices"
)

// Table maps int keys, such as node ids, to records through a slice
// sorted by key: a lookup is a binary search over contiguous entries,
// and a table of n records costs n entries however far apart the keys
// are, where a slice indexed by key would cost the key range and a Go
// map its buckets. The records live elsewhere, typically carved from a
// Slab, and never move.
type Table[T any] struct{ entries []TableEntry[T] }

// TableEntry is one key of a Table and its record.
type TableEntry[T any] struct {
	Key int
	Rec *T
}

// Entries returns the table's entries in key order. The caller must not
// modify them.
func (t *Table[T]) Entries() []TableEntry[T] { return t.entries }

// search returns the index of key's entry, or of the entry it would go
// before.
//
//rvmalint:hot
func (t *Table[T]) search(key int) int {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.entries[m].Key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Find returns key's record, nil if it has none.
//
//rvmalint:hot
func (t *Table[T]) Find(key int) *T {
	if i := t.search(key); i < len(t.entries) && t.entries[i].Key == key {
		return t.entries[i].Rec
	}
	return nil
}

// Insert files rec under key, which must have no record yet. The table
// grows by doubling, so a table filled one key at a time allocates
// O(log n) times.
//
//rvmalint:hot
func (t *Table[T]) Insert(key int, rec *T) {
	//rvmalint:allow hotalloc -- growth doubles, so a table allocates O(log records) times over its life
	t.entries = slices.Insert(t.entries, t.search(key), TableEntry[T]{key, rec})
}

// Add gives every key among keys that has no record a zero record, the
// records carved in one array from recs, and grows the table to exactly
// its new size, carving it from ents: a caller that knows its keys up
// front pays a few allocations for all of them, not one per key. A key
// named twice gets one record.
func (t *Table[T]) Add(keys []int, ents *Slab[TableEntry[T]], recs *Slab[T]) {
	n := 0
	for _, k := range keys {
		if t.Find(k) == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	old := len(t.entries)
	table := ents.Make(old + n)
	copy(table, t.entries)
	i := old
	for _, k := range keys {
		if t.Find(k) == nil {
			table[i].Key = k
			i++
		}
	}
	slices.SortFunc(table, func(a, b TableEntry[T]) int { return cmp.Compare(a.Key, b.Key) })
	// A key named twice has two new entries: keep one.
	table = slices.CompactFunc(table, func(a, b TableEntry[T]) bool { return a.Key == b.Key })
	made := recs.Make(len(table) - old)
	for i := range table {
		if table[i].Rec == nil {
			table[i].Rec, made = &made[0], made[1:]
		}
	}
	t.entries = table
}

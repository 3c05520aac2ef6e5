package sim

import "testing"

// A Table finds every key it was given, in bulk or one at a time, and no
// other; a bulk Add gives a key named twice, or one already filed, no
// second record, carves its records and entries from the slabs it is
// handed, and leaves the table exactly as long as its keys.
func TestTableAddInsertFind(t *testing.T) {
	var tab Table[int]
	var ents Slab[TableEntry[int]]
	var recs Slab[int]
	tab.Add([]int{40, 7, 40, 19}, &ents, &recs)
	seven := tab.Find(7)
	*seven = 7
	tab.Insert(3, recs.New())
	tab.Add([]int{7, 100, 3, 55}, &ents, &recs)
	if tab.Find(7) != seven || *seven != 7 {
		t.Fatal("a second Add replaced the record of a key it already had")
	}
	want := []int{3, 7, 19, 40, 55, 100}
	got := tab.Entries()
	if len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("table of %d entries (capacity %d), want exactly %d", len(got), cap(got), len(want))
	}
	for i, e := range got {
		if e.Key != want[i] || e.Rec == nil || tab.Find(e.Key) != e.Rec {
			t.Fatalf("entry %d: key %d record %p, want key %d with its record", i, e.Key, e.Rec, want[i])
		}
	}
	for _, k := range []int{-1, 0, 8, 41, 1000} {
		if tab.Find(k) != nil {
			t.Fatalf("Find(%d) found a record", k)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { tab.Find(55) })
	if allocs != 0 {
		t.Fatalf("Find allocates %v", allocs)
	}
}

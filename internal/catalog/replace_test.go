package catalog

import (
	"errors"
	"testing"
)

// The three tests below keep the names they had when Touch, Promote and
// Refresh were three calls; Replace is now the one way to do all three.

// TestGenerationAndTouch: an entry starts at generation 1 and every Replace
// moves it by exactly one — also with the graph the entry already holds,
// which is what Touch was for: the graph's derived artifacts may be stale.
func TestGenerationAndTouch(t *testing.T) {
	c := New(-1)
	g := grid(t, 6)
	if err := c.Add("a", g, "test"); err != nil {
		t.Fatal(err)
	}
	if gen, ok := c.Generation("a"); !ok || gen != 1 {
		t.Fatalf("Generation(a) = %d, %v; want 1, true", gen, ok)
	}
	for want := uint64(2); want <= 3; want++ {
		if err := c.Replace("a", g); err != nil {
			t.Fatal(err)
		}
		if gen, _ := c.Generation("a"); gen != want {
			t.Fatalf("generation after same-graph Replace = %d, want %d", gen, want)
		}
		if infos := c.List(); infos[0].Generation != want {
			t.Fatalf("List generation = %d, want %d", infos[0].Generation, want)
		}
	}
	if got, ok := c.Get("a"); !ok || got != g || c.Bytes() != GraphBytes(g) {
		t.Fatalf("same-graph Replace changed the graph: same=%v bytes=%d", got == g, c.Bytes())
	}
	if _, ok := c.Generation("missing"); ok {
		t.Fatal("Generation(missing) reported ok")
	}
}

// TestPromoteAndRefresh: a replacement installs the new graph — Get serves
// it, the counts and byte accounting follow it — and marks the entry
// dynamic.
func TestPromoteAndRefresh(t *testing.T) {
	c := New(-1)
	if err := c.Add("a", grid(t, 6), "test"); err != nil {
		t.Fatal(err)
	}
	if infos := c.List(); infos[0].Dynamic {
		t.Fatal("a fresh entry reported dynamic")
	}
	bigger := grid(t, 7)
	if err := c.Replace("a", bigger); err != nil {
		t.Fatal(err)
	}
	if gen, _ := c.Generation("a"); gen != 2 {
		t.Fatalf("generation after Replace = %d, want 2", gen)
	}
	if got, ok := c.Get("a"); !ok || got != bigger {
		t.Fatal("Get(a) did not return the replacement")
	}
	in := c.List()[0]
	if !in.Dynamic || in.Vertices != 49 || in.Edges != bigger.NumEdges() || in.Bytes != GraphBytes(bigger) {
		t.Fatalf("info not replaced: %+v", in)
	}
	if c.Bytes() != GraphBytes(bigger) {
		t.Fatalf("catalog bytes %d, want %d", c.Bytes(), GraphBytes(bigger))
	}
}

// TestPromoteErrors: Replace of a name the catalog does not hold is
// ErrNotFound and creates nothing. (A weighted graph is refused before the
// catalog is reached: dyngraph.Apply's ErrWeighted.)
func TestPromoteErrors(t *testing.T) {
	c := New(-1)
	if err := c.Replace("missing", grid(t, 6)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Replace(missing) err = %v, want ErrNotFound", err)
	}
	if _, ok := c.Generation("missing"); ok || len(c.List()) != 0 || c.Bytes() != 0 {
		t.Fatalf("a failed Replace left an entry: %+v, %d bytes", c.List(), c.Bytes())
	}
}

// TestReplaceNeverEvictsItself: a replacement that pushes the catalog over
// its budget evicts least-recently-used others, never the entry replaced —
// even when it is the oldest — and stays over budget if nothing else can go.
func TestReplaceNeverEvictsItself(t *testing.T) {
	one := GraphBytes(grid(t, 6))
	c := New(2*one + one/2) // room for two 6×6 grids
	for _, name := range []string{"a", "b"} {
		if err := c.Add(name, grid(t, 6), "test"); err != nil {
			t.Fatal(err)
		}
	}
	c.Get("b") // a is the LRU entry
	if err := c.Replace("a", grid(t, 8)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("the replaced entry was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived a replacement that does not fit beside it")
	}
	if err := c.Replace("a", grid(t, 12)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); !ok || c.Bytes() != GraphBytes(grid(t, 12)) {
		t.Fatalf("alone and over budget: present=%v bytes=%d", ok, c.Bytes())
	}
}

// TestOnChangeHearsEveryChange: the one hook reports every way an entry's
// (name, generation) can stop describing what a cache holds — and nothing
// else — after the change is in place.
func TestOnChangeHearsEveryChange(t *testing.T) {
	one := GraphBytes(grid(t, 6))
	c := New(2*one + one/2) // room for two 6×6 grids
	var heard []string
	c.OnChange(func(name string) {
		heard = append(heard, name)
		// Under the catalog lock and after the change: the entry already
		// is (or is no longer) there.
		if e, ok := c.entries[name]; ok {
			heard[len(heard)-1] += "@" + string(rune('0'+e.info.Generation))
		}
	})
	expect := func(what string, want ...string) {
		t.Helper()
		if len(heard) != len(want) {
			t.Fatalf("%s: heard %v, want %v", what, heard, want)
		}
		for i := range want {
			if heard[i] != want[i] {
				t.Fatalf("%s: heard %v, want %v", what, heard, want)
			}
		}
		heard = nil
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	must(c.Add("a", grid(t, 6), "test"))
	expect("Add", "a@1")
	g, _ := c.Get("a")
	must(c.Replace("a", g))
	expect("Replace", "a@2")
	c.Get("a")
	c.List()
	c.Generation("a")
	expect("Get, List and Generation")
	must(c.Replace("a", grid(t, 6)))
	expect("second Replace", "a@3")

	must(c.Add("b", grid(t, 6), "test"))
	expect("second Add", "b@1")
	must(c.Add("c", grid(t, 6), "test")) // over budget: a is the oldest
	expect("evicting Add", "c@1", "a")
	must(c.Remove("b"))
	expect("Remove", "b")
	must(c.Add("a", grid(t, 6), "test"))
	expect("Add over an evicted name", "a@1")
	if err := c.Add("a", grid(t, 6), "test"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add: %v", err)
	}
	if err := c.Remove("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove of a missing name: %v", err)
	}
	if err := c.Replace("zz", g); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Replace of a missing name: %v", err)
	}
	expect("failed Add, Remove and Replace")
}

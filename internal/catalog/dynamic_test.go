package catalog

import (
	"errors"
	"testing"

	"repro/internal/dyngraph"
)

func TestGenerationAndTouch(t *testing.T) {
	c := New(-1)
	if err := c.Add("a", grid(t, 6), "test"); err != nil {
		t.Fatal(err)
	}
	gen0, ok := c.Generation("a")
	if !ok || gen0 != 1 {
		t.Fatalf("Generation(a) = %d, %v; want 1, true", gen0, ok)
	}
	g1, err := c.Touch("a")
	if err != nil || g1 != 2 {
		t.Fatalf("Touch(a) = %d, %v; want 2", g1, err)
	}
	if infos := c.List(); infos[0].Generation != 2 {
		t.Fatalf("List generation = %d, want 2", infos[0].Generation)
	}
	if _, err := c.Touch("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Touch(missing) err = %v", err)
	}
	if _, ok := c.Generation("missing"); ok {
		t.Fatal("Generation(missing) reported ok")
	}
}

func TestPromoteAndRefresh(t *testing.T) {
	c := New(-1)
	base := grid(t, 6) // 36 vertices
	if err := c.Add("a", base, "test"); err != nil {
		t.Fatal(err)
	}
	d, err := c.Promote("a", dyngraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Promotion bumps the generation and marks the entry dynamic.
	if gen, _ := c.Generation("a"); gen != 2 {
		t.Fatalf("post-promote generation %d, want 2", gen)
	}
	if infos := c.List(); !infos[0].Dynamic {
		t.Fatal("promoted entry not marked dynamic")
	}
	// A second promote returns the same handle.
	if d2, err := c.Promote("a", dyngraph.Options{}); err != nil || d2 != d {
		t.Fatalf("re-promote returned %p, %v; want %p", d2, err, d)
	}
	if got, ok := c.Dynamic("a"); !ok || got != d {
		t.Fatal("Dynamic(a) did not return the promoted handle")
	}

	// Refresh with no pending mutations is a no-op.
	if _, gen, err := c.Refresh("a"); err != nil || gen != 2 {
		t.Fatalf("idle refresh: gen=%d err=%v, want 2", gen, err)
	}
	if _, err := d.Apply([]dyngraph.Mutation{{Op: dyngraph.AddEdge, U: 0, V: 7}}); err != nil {
		t.Fatal(err)
	}
	snap, gen, err := c.Refresh("a")
	if err != nil || gen != 3 {
		t.Fatalf("refresh: gen=%d err=%v, want 3", gen, err)
	}
	if !snap.HasEdge(0, 7) {
		t.Fatal("refreshed snapshot missing the applied edge")
	}
	// Get now serves the refreshed snapshot, and Info tracks its size.
	if got, ok := c.Get("a"); !ok || got != snap {
		t.Fatal("Get(a) did not return the refreshed snapshot")
	}
	if infos := c.List(); infos[0].Edges != snap.NumEdges() || infos[0].Bytes != GraphBytes(snap) {
		t.Fatalf("info not refreshed: %+v", infos[0])
	}
	if c.Bytes() != GraphBytes(snap) {
		t.Fatalf("catalog bytes %d, want %d", c.Bytes(), GraphBytes(snap))
	}
}

func TestPromoteErrors(t *testing.T) {
	c := New(-1)
	if err := c.Add("w", grid(t, 4).WithUnitWeights(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Promote("w", dyngraph.Options{}); !errors.Is(err, ErrWeighted) {
		t.Fatalf("Promote(weighted) err = %v, want ErrWeighted", err)
	}
	if _, err := c.Promote("missing", dyngraph.Options{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Promote(missing) err = %v, want ErrNotFound", err)
	}
	if _, _, err := c.Refresh("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Refresh(missing) err = %v, want ErrNotFound", err)
	}
	if err := c.Add("s", grid(t, 4), "test"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Refresh("s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Refresh(static) err = %v, want ErrNotFound", err)
	}
	if _, ok := c.Dynamic("s"); ok {
		t.Fatal("static entry reported dynamic")
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
	_, err := c.Touch("a")
	must(err)
	expect("Touch", "a@2")
	d, err := c.Promote("a", dyngraph.Options{})
	must(err)
	expect("Promote", "a@3")
	_, err = c.Promote("a", dyngraph.Options{})
	must(err)
	_, _, err = c.Refresh("a")
	must(err)
	c.Get("a")
	c.List()
	expect("re-Promote, empty Refresh, Get and List")
	_, err = d.Apply([]dyngraph.Mutation{{Op: dyngraph.AddEdge, U: 0, V: 35}})
	must(err)
	_, _, err = c.Refresh("a")
	must(err)
	expect("Refresh", "a@4")

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
	expect("failed Add and Remove")
}

package catalog

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func grid(t *testing.T, side int) *graph.CSR {
	t.Helper()
	return gen.Grid2D(side, side)
}

func TestAddGetListRemove(t *testing.T) {
	c := New(-1)
	g := grid(t, 8)
	if err := c.Add("a", g, "test"); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("a"); !ok || got != g {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get(nope) found something")
	}
	if err := c.Add("a", g, "test"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add error = %v, want ErrExists", err)
	}
	if err := c.Add("b", grid(t, 4), "test"); err != nil {
		t.Fatal(err)
	}
	infos := c.List()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Vertices != 64 || infos[0].Bytes != GraphBytes(g) {
		t.Fatalf("info = %+v", infos[0])
	}
	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove error = %v, want ErrNotFound", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestBadNames(t *testing.T) {
	c := New(0)
	g := grid(t, 4)
	for _, name := range []string{"", "a/b", "a b", "..", string(make([]byte, 80))} {
		if err := c.Add(name, g, "test"); !errors.Is(err, ErrBadName) {
			t.Errorf("Add(%q) error = %v, want ErrBadName", name, err)
		}
	}
	if err := c.Add("ok-name.v2_x", g, "test"); err != nil {
		t.Fatal(err)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	g := grid(t, 16)
	gb := GraphBytes(g)
	c := New(2*gb + gb/2) // room for two graphs, not three
	for _, name := range []string{"g1", "g2"} {
		if err := c.Add(name, g, "test"); err != nil {
			t.Fatal(err)
		}
	}
	// Read g1 so g2 is the LRU victim.
	c.Get("g1")
	if err := c.Add("g3", g, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("g2"); ok {
		t.Fatal("g2 survived eviction")
	}
	for _, name := range []string{"g1", "g3"} {
		if _, ok := c.Get(name); !ok {
			t.Fatalf("%s evicted unexpectedly", name)
		}
	}
	if c.Bytes() > 2*gb+gb/2 {
		t.Fatalf("bytes %d over budget", c.Bytes())
	}
}

func TestPinnedNeverEvictedOrRemoved(t *testing.T) {
	g := grid(t, 16)
	gb := GraphBytes(g)
	c := New(gb + gb/2) // only one graph fits
	if err := c.AddPinned("keep", g, "startup"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("extra", g, "test"); err != nil {
		t.Fatal(err)
	}
	// The unpinned newcomer cannot push the pinned entry out; the
	// catalog stays over budget with both resident rather than evicting
	// the pinned graph.
	if _, ok := c.Get("keep"); !ok {
		t.Fatal("pinned graph evicted")
	}
	if err := c.Remove("keep"); !errors.Is(err, ErrPinned) {
		t.Fatalf("Remove(pinned) error = %v, want ErrPinned", err)
	}
}

func TestTooLarge(t *testing.T) {
	g := grid(t, 16)
	c := New(GraphBytes(g) - 1)
	if err := c.Add("big", g, "test"); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Add error = %v, want ErrTooLarge", err)
	}
}

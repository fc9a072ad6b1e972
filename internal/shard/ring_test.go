package shard

import (
	"fmt"
	"testing"
)

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(nodes, 0)
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("graph-%d", i))]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / keys
		// Perfect balance is 0.25; 128 vnodes should keep every node
		// within a generous 2x band.
		if frac < 0.125 || frac > 0.5 {
			t.Errorf("node %s owns %.1f%% of keys", n, 100*frac)
		}
	}
}

func TestRingStabilityUnderNodeLoss(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	full := NewRing(nodes, 0)
	without := NewRing(nodes[:3], 0) // d removed

	moved, kept := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("graph-%d", i)
		was, now := full.Owner(key), without.Owner(key)
		if was == "http://d:1" {
			continue // had to move
		}
		if was == now {
			kept++
		} else {
			moved++
		}
	}
	// Consistent hashing's whole point: keys not owned by the lost node
	// keep their owner.
	if moved != 0 {
		t.Errorf("%d keys moved that were not on the removed node (%d stayed)", moved, kept)
	}
}

func TestRingDegenerateCases(t *testing.T) {
	empty := NewRing(nil, 0)
	if empty.Owner("x") != "" {
		t.Fatal("empty ring must route nothing")
	}
	dup := NewRing([]string{"http://a:1", "http://a:1", ""}, 16)
	if got := dup.Nodes(); len(got) != 1 || got[0] != "http://a:1" {
		t.Fatalf("Nodes() = %v; duplicates and blanks must collapse", got)
	}
	if dup.Owner("anything") != "http://a:1" {
		t.Fatal("single-node ring must own everything")
	}
}

// Package shard splits hdeserve into a stateless router and a fleet of
// layout workers. A consistent-hash ring over graph names decides which
// worker owns each graph, and the Router forwards the catalog, job,
// mutation, and streaming API to that one worker while keeping a
// byte-budget LRU of hot rendered tiles that it revalidates with
// generation-keyed ETags. Workers stay plain single-process hdeserve
// servers; all fleet topology lives here.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring. Nodes are opaque strings —
// in hdeserve they are worker base URLs, which keeps ring membership
// stable across worker restarts (a worker that comes back on the same
// address owns the same arc without any remapping). Each node is placed
// at many virtual-node points on the ring so load spreads evenly even with a
// handful of nodes.
type Ring struct {
	nodes  []string // distinct node ids, sorted
	points []ringPoint
}

// ringPoint is one virtual node: a position on the hash circle and the
// index of the owning node.
type ringPoint struct {
	hash uint64
	node int
}

// DefaultVirtualNodes is the virtual-node count used when NewRing gets
// a non-positive value. 128 keeps the max/min node-load ratio within a
// few percent for small fleets while costing <100KB of ring state.
const DefaultVirtualNodes = 128

// hash64 is FNV-64a with a 64-bit avalanche finalizer (the MurmurHash3
// fmix64 constants): stdlib-only, stable across processes and releases,
// and fast enough that routing never shows up in a profile. Raw FNV is
// not enough here — ring inputs are highly similar short strings (peer
// URLs differing in one digit, "name#0".."name#127" vnode keys,
// sequential graph names), and FNV's weak avalanche leaves their ring
// positions correlated badly enough that a 3-node fleet measured a
// 57/23/20 split. The finalizer restores a near-uniform spread.
func hash64(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given nodes. Duplicate node ids are
// collapsed; virtualNodes <= 0 uses DefaultVirtualNodes. A ring over
// zero nodes is valid and routes nothing.
func NewRing(nodes []string, virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var distinct []string
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	sort.Strings(distinct)

	r := &Ring{nodes: distinct}
	r.points = make([]ringPoint, 0, len(distinct)*virtualNodes)
	for i, node := range distinct {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", node, v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node // deterministic on (rare) collisions
	})
	return r
}

// Nodes returns the distinct node ids on the ring, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the node owning key — the first virtual node clockwise
// from the key's ring position — or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.nodes[r.points[i%len(r.points)].node]
}

package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpcache"
)

// Push-per-change coherence. The router holds one invalidation feed per
// worker (wire contract: internal/httpcache/feed.go) and answers a cached
// tile itself for as long as the owner's feed vouches for it, instead of
// forwarding every read to hear "unchanged". The rule is peer.current;
// everything it does not cover falls back to fetchTile, which revalidates
// by ETag exactly as a router without feeds would.
//
// Consistency, in one place: a tile is served without asking only while
// it carries the newest version this router has seen for its graph, so a
// change is visible through the router one feed delivery after the worker
// makes it (or, over a connection that stalls without closing, two
// heartbeats). Reads are monotonic per router: a version seen on any
// response or frame untrusts every older tile of that graph at once. A
// router's own PATCH, DELETE and upload relays do not wait for the feed
// (relayChange). With a feed down, behaviour and cost are those of one
// conditional GET per read.

// feedState is what a router knows from one worker's feed. peer.mu guards
// it.
type feedState struct {
	// cancel hangs up the running feed connection; nil when none is.
	cancel context.CancelFunc
	// epoch counts hellos. A tile is trusted only under the epoch it was
	// fetched in: across a reconnect frames may have been missed.
	epoch     uint64
	connected bool // hello seen on the running connection
	// boot is the worker's boot id, from the last hello. Across a restart
	// the worker's versions and the generations in its ETags start over,
	// so a hello with a new boot id drops every tile of that worker: not
	// even a 304 can vouch for them.
	boot string
	// heartbeat is the silence the worker promised not to exceed, and
	// lastFrame when it was last heard (or, before the hello, dialled).
	heartbeat time.Duration
	lastFrame time.Time
	// latest is the newest version seen per graph in this epoch, from the
	// owner's frames and from version headers on its responses.
	latest map[string]uint64
}

// live reports whether the feed can be trusted at now: connected, and
// heard from within two heartbeats.
func (f *feedState) live(now time.Time) bool {
	return f.connected && now.Sub(f.lastFrame) < 2*f.heartbeat
}

// current reports whether t, a cached tile of a graph p owns, may be
// served without asking p: p's feed is live, t was fetched under this
// feed connection, and t carries the newest version seen for its graph.
func (p *peer) current(t *tile, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &p.feed
	return f.live(now) && t.epoch == f.epoch && t.version != 0 && t.version == f.latest[t.graph]
}

// feedEpoch returns the current feed epoch; a fetch reads it before it
// forwards.
func (p *peer) feedEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.feed.epoch
}

// feedStatus reports whether the feed is live at now and the boot id of
// the last hello.
func (p *peer) feedStatus(now time.Time) (live bool, boot string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.feed.live(now), p.feed.boot
}

// sawVersion records the graph version a response of p carries, if it
// carries one, and returns it. epoch is the feed epoch read before the
// request was sent: a version that crossed a reconnect may belong to
// another boot and is returned but not recorded. Nor is any before the
// first hello, when there is no feed to compare versions with.
func (p *peer) sawVersion(name string, h http.Header, epoch uint64) uint64 {
	v, err := strconv.ParseUint(h.Get(httpcache.VersionHeader), 10, 64)
	if err != nil {
		return 0
	}
	p.mu.Lock()
	if f := &p.feed; f.latest != nil && epoch == f.epoch && v > f.latest[name] {
		f.latest[name] = v
	}
	p.mu.Unlock()
	return v
}

// tendFeed is the health loop's part in p's feed: it dials one when none
// is running and p answered its probe, and hangs up one that has been
// silent for two heartbeats — a connection that died without closing
// would otherwise block its reader for good — so the next tick redials.
func (rt *Router) tendFeed(p *peer, healthy bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &p.feed
	now := time.Now()
	switch {
	case f.cancel != nil:
		if now.Sub(f.lastFrame) >= 2*f.heartbeat {
			f.cancel()
		}
	case healthy && rt.ctx.Err() == nil:
		ctx, cancel := context.WithCancel(rt.ctx)
		f.cancel, f.heartbeat, f.lastFrame = cancel, rt.cfg.HealthInterval, now
		rt.feeds.Add(1)
		go rt.runFeed(ctx, p)
	}
}

// runFeed holds one feed connection to p until it ends: the worker went
// away, the router is closing, tendFeed hung up, or the worker has no
// such route (an older build answers 404) — in each case every read of
// p's graphs revalidates until a later connection says hello.
func (rt *Router) runFeed(ctx context.Context, p *peer) {
	defer rt.feeds.Done()
	defer func() {
		p.mu.Lock()
		p.feed.cancel()
		p.feed.cancel, p.feed.connected = nil, false
		p.mu.Unlock()
		p.feedConnected.Set(0)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.url+httpcache.FeedPath+"?heartbeat="+rt.cfg.HealthInterval.String(), nil)
	if err != nil {
		return
	}
	resp, err := rt.streamClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	dec := json.NewDecoder(resp.Body)
	var hello httpcache.Frame
	if dec.Decode(&hello) != nil || hello.Boot == "" || hello.HeartbeatMs <= 0 {
		return
	}
	p.mu.Lock()
	f := &p.feed
	restarted := f.boot != "" && f.boot != hello.Boot
	if restarted {
		rt.cache.DropIf(func(_ string, t *tile) bool { return rt.owner(t.graph) == p })
	}
	f.epoch++
	f.connected, f.boot = true, hello.Boot
	f.heartbeat, f.lastFrame = time.Duration(hello.HeartbeatMs)*time.Millisecond, time.Now()
	f.latest = map[string]uint64{}
	p.mu.Unlock()
	p.feedConnected.Set(1)
	rt.logf("feed of worker %s (%s) connected, boot %s (restarted=%v)", p.workerID(), p.url, hello.Boot, restarted)

	for {
		var fr httpcache.Frame
		if err := dec.Decode(&fr); err != nil {
			rt.logf("feed of worker %s (%s) ended: %v", p.workerID(), p.url, err)
			return
		}
		// Every worker pins its own "default", so a frame counts only when
		// it comes from the graph's ring owner.
		owned := fr.Graph != "" && rt.owner(fr.Graph) == p
		p.mu.Lock()
		f.lastFrame = time.Now()
		if owned && fr.Version > f.latest[fr.Graph] {
			f.latest[fr.Graph] = fr.Version
		}
		p.mu.Unlock()
		if owned {
			rt.invalidations.Inc()
		}
	}
}

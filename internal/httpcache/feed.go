package httpcache

// The invalidation feed's wire contract, shared by the worker that serves
// it and the router that consumes it. A worker numbers every change of
// anything a cacheable view's ETag is derived from — a layout install, a
// catalog generation move, a removal or eviction — with a per-graph
// version that only grows within one boot. It stamps the graph's current
// version on every view response (VersionHeader) and pushes one Frame per
// change down every open feed, so a cache holding a tile at version V
// knows the tile is current for exactly as long as V is the newest
// version it has heard of, without asking.

// FeedPath is the worker route serving the feed: a long-lived response of
// newline-delimited JSON Frames, the first of which is the hello.
const FeedPath = "/invalidations"

// VersionHeader carries, on a worker's view responses and on its answers
// to graph mutations, the graph's version in decimal. The worker reads it
// before the state a view is rendered from and after the state a mutation
// changed, so a response is never older than the version it carries.
const VersionHeader = "X-Hdeserve-Version"

// Frame is one line of the feed. The hello frame has Boot and HeartbeatMs
// set; a change frame has Graph and Version set; a frame with neither is
// the heartbeat the worker writes every HeartbeatMs.
type Frame struct {
	// Boot identifies the worker process: versions of different boots do
	// not compare.
	Boot string `json:"boot,omitempty"`
	// HeartbeatMs is the longest the worker lets the feed stay silent; a
	// consumer that has heard nothing for twice as long should stop
	// trusting it.
	HeartbeatMs int64 `json:"heartbeatMs,omitempty"`
	// Graph names the graph that changed.
	Graph string `json:"graph,omitempty"`
	// Version is Graph's version after the change.
	Version uint64 `json:"version,omitempty"`
	// RequestID is, on the frame of a layout install, the ID of the
	// request whose job installed it.
	RequestID string `json:"requestId,omitempty"`
}

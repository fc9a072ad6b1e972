package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/httpcache"
)

// Live coordinate streaming. The stream is a reader of the change feed
// (feed.go): on every frame of its graph it looks at the graph's current
// view and, when it is not the view this connection last delivered, writes
// the difference between the two. A delta is therefore always relative to
// the event before it on the same connection, so a slow client gets the
// net change when it catches up — or, a full feed buffer behind, is cut
// off and reconnects for a fresh snapshot — and never a silent gap.
// Versions are the per-graph view generations: strictly increasing, and
// skipping the views that were superseded before the stream read them.

// handleGraphStream is GET /graphs/{name}/stream: a Server-Sent-Events
// response opening with a "snapshot" of the current layout and following
// with a "delta" whenever the installed view moves, plus a ":" comment line
// every heartbeat. It ends when the client leaves, the server hangs up, the
// feed cuts it off or the graph's view is gone (DELETE, re-upload,
// eviction).
func (s *Server) handleGraphStream(w http.ResponseWriter, r *http.Request) {
	v, ok := s.lookupView(w, r)
	if !ok {
		return
	}
	name := v.name
	graph, _ := json.Marshal(name) // a string always marshals
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")

	var last *view // the view this connection last delivered
	s.push(w, r, s.feed.streams, defaultHeartbeat, ":\n\n", httpcache.Frame{Graph: name},
		func(bw *bufio.Writer, fr httpcache.Frame) bool {
			if fr.Graph != name {
				return true
			}
			v, _, laidOut := s.viewOf(name)
			if !laidOut {
				return false
			}
			if v != last {
				writeEvent(bw, graph, last, v)
				last = v
			}
			return true
		})
}

// writeEvent writes v as one SSE event: a "snapshot" of every row when last
// is nil, otherwise a "delta" against last carrying the rows that moved —
// every row ("full") when most did or the two layouts do not compare. The
// JSON is appended row by row through one small buffer, so the event costs
// one allocation whatever the graph's size. graph is the graph's name as a
// JSON string. A failed write sticks in bw and is reported by its Flush.
func writeEvent(bw *bufio.Writer, graph []byte, last, v *view) {
	l := v.layout
	n, p := l.NumVertices(), l.Dims()
	event, full := "snapshot", true
	var prev *core.Layout
	if last != nil {
		event, prev = "delta", last.layout
		full = prev.Dims() != p || prev.NumVertices() > n
	}
	moved := func(i int) bool {
		if full || i >= prev.NumVertices() {
			return true
		}
		for j := 0; j < p; j++ {
			if l.Coords.At(i, j) != prev.Coords.At(i, j) {
				return true
			}
		}
		return false
	}
	changed := 0
	if !full {
		for i := 0; i < n; i++ {
			if moved(i) {
				changed++
			}
		}
		full = changed > n/2
	}

	b := make([]byte, 0, 128+len(graph)+25*p)
	b = append(append(append(append(b, "event: "...), event...), "\ndata: {\"graph\":"...), graph...)
	b = strconv.AppendInt(append(b, `,"version":`...), int64(v.gen), 10)
	b = strconv.AppendInt(append(b, `,"dims":`...), int64(p), 10)
	b = strconv.AppendInt(append(b, `,"n":`...), int64(n), 10)
	b = strconv.AppendBool(append(b, `,"full":`...), full)
	if !full && changed > 0 {
		b = append(b, `,"changed":[`...)
		for i, k := 0, 0; i < n; i++ {
			if moved(i) {
				b = strconv.AppendInt(appendSep(b, k), int64(i), 10)
				_, _ = bw.Write(b)
				b, k = b[:0], k+1
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"coords":[`...)
	for i, k := 0, 0; i < n; i++ {
		if moved(i) {
			b = append(appendSep(b, k), '[')
			for j := 0; j < p; j++ {
				b = strconv.AppendFloat(appendSep(b, j), l.Coords.At(i, j), 'g', -1, 64)
			}
			b = append(b, ']')
			_, _ = bw.Write(b)
			b, k = b[:0], k+1
		}
	}
	_, _ = bw.Write(append(b, "]}\n\n"...))
}

// appendSep appends the comma that precedes the k-th item of a JSON list.
func appendSep(b []byte, k int) []byte {
	if k > 0 {
		return append(b, ',')
	}
	return b
}

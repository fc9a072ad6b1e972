package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpcache"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// logBuffer collects what a slog handler writes, safe to read while
// requests are still being logged.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// awaitLine waits for a line holding every one of parts.
func (l *logBuffer) awaitLine(t *testing.T, what string, parts ...string) {
	t.Helper()
	waitFor(t, what, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, line := range strings.Split(l.b.String(), "\n") {
			all := true
			for _, p := range parts {
				all = all && strings.Contains(line, p)
			}
			if all {
				return true
			}
		}
		return false
	})
}

// sseEvent is one event of a layout stream, with the fields this test reads.
type sseEvent struct {
	name string
	data struct {
		Version   int    `json:"version"`
		RequestID string `json:"requestId"`
	}
}

// stream opens url's event stream under the request ID sent and returns
// its events; it ends when the returned func closes the response.
func stream(t *testing.T, url, sent string) (<-chan sseEvent, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, sent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	events := make(chan sseEvent, 16) // more than the test causes
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data) == nil {
					events <- ev
				}
				ev = sseEvent{}
			}
		}
	}()
	return events, func() { resp.Body.Close() }
}

// nextEvent returns the stream's next event, failing after 10 s.
func nextEvent(t *testing.T, events <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("stream ended")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no stream event for 10s")
	}
	return sseEvent{}
}

// TestRequestIDFollowsRoutedJob follows one X-Request-Id from a routed
// POST /jobs to the access lines of the router and of the worker, the
// job's status, the stream event its install causes and the frame the
// install pushes down the worker's invalidation feed (what the router
// reads). A valid client ID is kept; an over-long or ill-formed one is
// replaced by the router's, which is then the one followed. A worker
// restarted on the same data dir reports the ID for the job it replays.
func TestRequestIDFollowsRoutedJob(t *testing.T) {
	dir := t.TempDir()
	var workerLog, routerLog logBuffer
	boot := func(addr string) (*server.Server, *httptest.Server) {
		t.Helper()
		s, err := server.NewWithConfig(gen.Grid2D(12, 12), core.Options{Subspace: 8, Seed: 1},
			server.Config{WorkerID: "w1", DataDir: dir, Workers: 1, QueueDepth: 8,
				Logger: slog.New(slog.NewTextHandler(&workerLog, nil))})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		return s, ts
	}
	s1, w1 := boot("127.0.0.1:0")
	// No keep-alives: the restarted worker is reached on a fresh connection.
	rt, err := NewRouter(Config{Peers: []string{w1.URL}, HealthInterval: time.Hour,
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Logger: slog.New(slog.NewTextHandler(&routerLog, nil))})
	if err != nil {
		s1.Close()
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })

	// call sends one request through the router under the ID sent ("" =
	// none) and returns the ID on the answer and the decoded body.
	call := func(method, path, sent, body string, out interface{}) string {
		t.Helper()
		req, err := http.NewRequest(method, rts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set(obs.RequestIDHeader, sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get(obs.RequestIDHeader)
	}
	submit := func(graph string, subspace int, sent string) (string, jobs.Status) {
		t.Helper()
		var st jobs.Status
		id := call(http.MethodPost, "/jobs", sent, fmt.Sprintf(`{"graph":%q,"subspace":%d,"seed":1}`, graph, subspace), &st)
		return id, st
	}
	// follow checks that a routed POST /jobs answered under id reached
	// both access logs and GET /jobs/{id}, and that its install carried
	// id into the stream's next event and into a feed frame.
	follow := func(id string, st jobs.Status, event string, events <-chan sseEvent, frames <-chan httpcache.Frame) {
		t.Helper()
		if id == "" || st.RequestID != id {
			t.Fatalf("POST /jobs answered under ID %q with job %+v", id, st)
		}
		for who, l := range map[string]*logBuffer{"router": &routerLog, "worker": &workerLog} {
			l.awaitLine(t, who+" access line of POST /jobs "+id, "msg=access method=POST path=/jobs", " requestId="+id)
		}
		waitFor(t, "job "+st.ID, func() bool {
			var got jobs.Status
			call(http.MethodGet, "/jobs/"+st.ID, "", "", &got)
			if got.RequestID != id {
				t.Fatalf("GET /jobs/%s reports request ID %q, want %q", st.ID, got.RequestID, id)
			}
			return got.State == "done"
		})
		if ev := nextEvent(t, events); ev.name != event || ev.data.RequestID != id {
			t.Fatalf("stream event after job %s: %s with request ID %q, want %s with %q", st.ID, ev.name, ev.data.RequestID, event, id)
		}
		for deadline := time.After(10 * time.Second); ; {
			select {
			case fr := <-frames:
				if fr.Graph == "g" && fr.RequestID == id {
					return
				}
			case <-deadline:
				t.Fatalf("no feed frame of g carries request ID %q", id)
			}
		}
	}

	uploadVia(t, rts.URL, "g")
	feed, err := http.Get(w1.URL + httpcache.FeedPath)
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan httpcache.Frame, 64) // more than the test causes
	go func() {
		defer feed.Body.Close()
		dec := json.NewDecoder(feed.Body)
		for {
			var fr httpcache.Frame
			if dec.Decode(&fr) != nil {
				return
			}
			frames <- fr
		}
	}()

	// A valid client ID is kept; the view the job installs is the one the
	// stream opens with.
	const clientID = "client-req.1"
	id, st := submit("g", 6, clientID)
	if id != clientID {
		t.Fatalf("the router replaced the valid ID %q by %q", clientID, id)
	}
	// A job reads done before OnDone has installed its layout, and the
	// stream answers 409 until then: wait for the install itself.
	waitFor(t, "first install", func() bool {
		resp, err := http.Get(w1.URL + "/graphs/g/layout.png")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode != http.StatusConflict
	})
	events, closeStream := stream(t, rts.URL+"/graphs/g/stream", "stream-1")
	follow(id, st, "snapshot", events, frames)

	// An over-long or ill-formed ID is replaced, and the replacement is
	// followed the same way.
	for _, bad := range []string{strings.Repeat("x", 65), "two words"} {
		id, st := submit("g", 6, bad)
		if id == bad {
			t.Fatalf("the router kept the invalid ID %q", bad)
		}
		follow(id, st, "delta", events, frames)
	}

	// The fan-out and the stream relay forward the ID too.
	var list struct{ Jobs []jobs.Status }
	call(http.MethodGet, "/jobs", "list-1", "", &list)
	workerLog.awaitLine(t, "worker access line of the fanned-out GET /jobs", "msg=access method=GET path=/jobs ", " requestId=list-1")
	closeStream()
	workerLog.awaitLine(t, "worker access line of the relayed stream", "path=/graphs/g/stream", " requestId=stream-1")

	// Two slow jobs on one pool worker: shutting the worker down interrupts
	// at least the second, whose intent keeps its request ID.
	var big bytes.Buffer
	if err := graph.WriteEdgeList(&big, gen.Grid2D(80, 80)); err != nil {
		t.Fatal(err)
	}
	var up struct{}
	call(http.MethodPost, "/graphs?name=big&format=edges", "", big.String(), &up)
	submit("big", 256, "slow-1")
	_, replayed := submit("big", 256, "replay-me")
	s1.Hangup()
	w1.Close()
	s1.Close()
	snap, err := jobs.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending := false
	for _, in := range snap.Pending {
		pending = pending || in.ID == replayed.ID && in.RequestID == "replay-me"
	}
	if !pending {
		t.Fatalf("shutdown left intents %+v; want %s pending with its request ID (test needs slower jobs?)", snap.Pending, replayed.ID)
	}
	s2, w2 := boot(strings.TrimPrefix(w1.URL, "http://"))
	t.Cleanup(func() { s2.Hangup(); w2.Close(); s2.Close() })
	call(http.MethodGet, "/jobs", "", "", &list)
	for _, job := range list.Jobs {
		if job.RequestID == "replay-me" && job.ID != replayed.ID {
			return
		}
	}
	t.Fatalf("the restarted worker lists %+v; want the replay of %s under request ID replay-me", list.Jobs, replayed.ID)
}

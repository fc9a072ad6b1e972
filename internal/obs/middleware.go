package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries a request's ID. A client may send one; every
// response carries the ID its request was served under, and a router
// forwards it on every request it makes to a worker for that request.
const RequestIDHeader = "X-Request-Id"

var requestIDForm = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// validRequestID reports whether id is one Middleware keeps as it came:
// 1 to 64 bytes of [A-Za-z0-9._-]. Any other value is replaced.
func validRequestID(id string) bool { return requestIDForm.MatchString(id) }

// Discard returns the logger a nil *slog.Logger config field stands for:
// every level is disabled, so a record is never formatted.
func Discard() *slog.Logger { return discard }

var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	// id backs the request ID header value of both the request and the
	// response, so the ID costs no slice of its own.
	id [1]string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadlines.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards to the underlying writer when it supports streaming, so
// wrapping a handler does not silently disable flushing.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware wraps next with request accounting, the request ID and an
// access line. Per-route request counters
// (http_requests_total{route=...,code=...}) and latency histograms
// (http_request_duration_seconds{route=...}) land in reg. routeOf maps a
// request to a bounded route label — pass nil to use the raw URL path
// (only safe when the path space is bounded).
//
// A request keeps the X-Request-Id it came with when it is 1 to 64 bytes
// of [A-Za-z0-9._-]; otherwise the middleware mints one (a random prefix
// drawn once here and a sequence number) and sets it on the request, so
// the handler reads the ID from the request's header either way. The
// response carries it too. logger (never nil: Discard is the silent one)
// gets one "access" record per request at Info; its attributes are built
// only when logger is enabled for Info.
func Middleware(reg *Registry, logger *slog.Logger, routeOf func(*http.Request) string, next http.Handler) http.Handler {
	// The series of a (route, status) pair are resolved once: formatting
	// two names and taking the registry lock three times per request was a
	// measurable share of a cache hit.
	type routeCode struct {
		route string
		code  int
	}
	type series struct {
		requests *Counter
		duration *Histogram
	}
	var (
		mu    sync.Mutex
		known = map[routeCode]series{}
	)
	responseBytes := reg.Counter("http_response_bytes_total")
	seriesOf := func(key routeCode) series {
		mu.Lock()
		defer mu.Unlock()
		s, ok := known[key]
		if !ok {
			s = series{
				requests: reg.Counter(fmt.Sprintf("http_requests_total{route=%q,code=\"%d\"}", key.route, key.code)),
				duration: reg.Histogram(fmt.Sprintf("http_request_duration_seconds{route=%q}", key.route)),
			}
			known[key] = s
		}
		return s
	}
	var boot [8]byte
	_, _ = rand.Read(boot[:]) // crypto/rand.Read does not fail on supported platforms
	prefix := hex.EncodeToString(boot[:]) + "-"
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if routeOf != nil {
			route = routeOf(r)
		}
		sw := &statusWriter{ResponseWriter: w}
		if vs := r.Header[RequestIDHeader]; len(vs) > 0 && validRequestID(vs[0]) {
			sw.id[0] = vs[0]
		} else {
			var b [40]byte
			sw.id[0] = string(strconv.AppendUint(append(b[:0], prefix...), seq.Add(1), 36))
			r.Header[RequestIDHeader] = sw.id[:]
		}
		w.Header()[RequestIDHeader] = sw.id[:]
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		if sw.status == 0 { // handler wrote nothing
			sw.status = http.StatusOK
		}
		s := seriesOf(routeCode{route, sw.status})
		s.requests.Inc()
		responseBytes.Add(sw.bytes)
		s.duration.ObserveDuration(dur)
		if logger.Enabled(r.Context(), slog.LevelInfo) {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "access",
				slog.String("method", r.Method), slog.String("path", r.URL.RequestURI()),
				slog.String("route", route), slog.Int("status", sw.status), slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", dur.Round(time.Microsecond)), slog.String("remote", r.RemoteAddr),
				slog.String("requestId", sw.id[0]))
		}
	})
}

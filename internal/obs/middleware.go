package obs

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"
)

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
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

// Middleware wraps next with request accounting and an optional
// structured access log. Per-route request counters
// (http_requests_total{route=...,code=...}) and latency histograms
// (http_request_duration_seconds{route=...}) land in reg. routeOf maps a
// request to a bounded route label — pass nil to use the raw URL path
// (only safe when the path space is bounded). logger, when non-nil,
// receives one logfmt-style line per request.
func Middleware(reg *Registry, logger *log.Logger, routeOf func(*http.Request) string, next http.Handler) http.Handler {
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
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path
		if routeOf != nil {
			route = routeOf(r)
		}
		sw := &statusWriter{ResponseWriter: w}
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
		if logger != nil {
			logger.Printf("method=%s path=%s route=%s status=%d bytes=%d dur=%s remote=%s",
				r.Method, r.URL.RequestURI(), route, sw.status, sw.bytes,
				dur.Round(time.Microsecond), r.RemoteAddr)
		}
	})
}

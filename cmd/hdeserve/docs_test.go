package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/shard"
)

// operationsSection returns the body of the named "## " section of
// OPERATIONS.md, failing the test when it is missing so a reorganized
// doc cannot silently disable a cross-check.
func operationsSection(t *testing.T, header string) string {
	t.Helper()
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	_, body, found := strings.Cut(string(raw), header)
	if !found {
		t.Fatalf("section %q not found in OPERATIONS.md", header)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	return body
}

// operationsFlagRows extracts the flag names documented in
// OPERATIONS.md's "## Flag reference" table (first-column code spans of
// the form `-name`).
func operationsFlagRows(t *testing.T) []string {
	t.Helper()
	body := operationsSection(t, "## Flag reference")
	var out []string
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell := strings.TrimPrefix(line, "| `-")
		end := strings.Index(cell, "`")
		if end < 0 {
			t.Fatalf("unterminated code span in flag table row: %s", line)
		}
		out = append(out, cell[:end])
	}
	if len(out) == 0 {
		t.Fatal("no flag rows found under the Flag reference table")
	}
	return out
}

// TestOperationsDocFlagTableMatchesFlagSet holds OPERATIONS.md's flag
// reference to the binary's live flag set (newFlagSet), in both
// directions: a flag added without documentation fails, and a
// documented flag the binary no longer accepts fails.
func TestOperationsDocFlagTableMatchesFlagSet(t *testing.T) {
	documented := operationsFlagRows(t)
	docSet := make(map[string]bool)
	for _, name := range documented {
		if docSet[name] {
			t.Errorf("OPERATIONS.md documents -%s twice", name)
		}
		docSet[name] = true
	}

	var opt options
	live := make(map[string]bool)
	newFlagSet(&opt).VisitAll(func(f *flag.Flag) { live[f.Name] = true })

	for name := range live {
		if !docSet[name] {
			t.Errorf("flag -%s is registered but missing from OPERATIONS.md's Flag reference", name)
		}
	}
	for name := range docSet {
		if !live[name] {
			t.Errorf("OPERATIONS.md documents -%s which the binary does not register", name)
		}
	}
}

// failureModeMetrics extracts the metric families OPERATIONS.md's
// "Failure modes" table names: every code span in the Signature column
// that starts with a lowercase letter (flags start with "-", routes with
// "/"), cut at its label set or sample value.
func failureModeMetrics(t *testing.T) []string {
	t.Helper()
	body := operationsSection(t, "## Failure modes")
	var out []string
	for _, line := range strings.Split(body, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.HasPrefix(strings.TrimSpace(cells[2]), "---") {
			continue
		}
		spans := strings.Split(cells[2], "`")
		for i := 1; i < len(spans); i += 2 {
			family, _, _ := strings.Cut(strings.ReplaceAll(spans[i], "{", " "), " ")
			if family != "" && family[0] >= 'a' && family[0] <= 'z' {
				out = append(out, family)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric names found in the Failure modes table")
	}
	return out
}

// TestOperationsDocFailureMetricsAreLive holds the failure-mode table's
// metric signatures to what the processes export: a worker and a router
// (with one dead peer, so the per-worker error series exist) serve a
// little traffic, and every family the table names must then appear on
// one of their /metrics pages.
func TestOperationsDocFailureMetricsAreLive(t *testing.T) {
	srv, err := server.NewWithConfig(gen.Grid2D(8, 8), core.Options{Subspace: 4, Seed: 1},
		server.Config{WorkerID: "w1", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	worker := httptest.NewServer(srv.Handler())
	defer worker.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt, err := shard.NewRouter(shard.Config{Peers: []string{worker.URL, dead.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	get(worker.URL + "/zoom.png?v=0&hops=2")
	ring := shard.NewRing([]string{worker.URL, dead.URL}, 0)
	for i, hit := 0, map[string]bool{}; len(hit) < 2; i++ { // one read per peer, dead one included
		name := "g" + strconv.Itoa(i)
		hit[ring.Owner(name)] = true
		get(router.URL + "/graphs/" + name + "/stats")
	}

	exported := get(worker.URL+"/metrics") + get(router.URL+"/metrics")
	for _, family := range failureModeMetrics(t) {
		if !strings.Contains(exported, "# TYPE "+family+" ") {
			t.Errorf("OPERATIONS.md's failure-mode table names %s, which neither a worker nor a router exports", family)
		}
	}
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// mdTableFirstColumn extracts the backticked first-column values of the
// markdown table found inside the named "## " section of doc. It fails
// the test if the section or table is missing, so a reorganized doc
// cannot silently disable the cross-check.
func mdTableFirstColumn(t *testing.T, doc, section string) []string {
	t.Helper()
	header := "## " + section
	i := strings.Index(doc, header)
	if i < 0 {
		t.Fatalf("section %q not found in doc", header)
	}
	body := doc[i+len(header):]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	var out []string
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `") {
			continue // prose, separator row, or header row
		}
		cell := strings.TrimPrefix(line, "| `")
		end := strings.Index(cell, "`")
		if end < 0 {
			t.Fatalf("unterminated code span in table row: %s", line)
		}
		out = append(out, cell[:end])
	}
	if len(out) == 0 {
		t.Fatalf("no table rows found under %q", header)
	}
	return out
}

// TestAPIDocRouteTableMatchesMux holds API.md's "## Route table" to the
// exact route set the server registers (RoutePatterns), in both
// directions: a route added without documentation fails, and a
// documented route that no longer exists fails.
func TestAPIDocRouteTableMatchesMux(t *testing.T) {
	raw, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("read API.md: %v", err)
	}
	documented := mdTableFirstColumn(t, string(raw), "Route table")

	live := make(map[string]bool)
	for _, p := range RoutePatterns() {
		live[p] = true
	}
	docSet := make(map[string]bool)
	for _, p := range documented {
		if docSet[p] {
			t.Errorf("API.md documents route %q twice", p)
		}
		docSet[p] = true
	}

	for p := range live {
		if !docSet[p] {
			t.Errorf("route %q is registered but missing from API.md's Route table", p)
		}
	}
	for p := range docSet {
		if !live[p] {
			t.Errorf("API.md documents route %q which the server does not register", p)
		}
	}
}

// acceptedJobFields parses the "Accepted job fields: …" sentence of doc:
// the backticked names outside parentheses are the fields, the backticked
// names in the parentheses after `algorithm` its accepted values.
func acceptedJobFields(t *testing.T, name, doc string) (fields, algorithms []string) {
	t.Helper()
	const lead = "Accepted job fields:"
	i := strings.Index(doc, lead)
	if i < 0 {
		t.Fatalf("%s has no %q sentence", name, lead)
	}
	sentence, _, _ := strings.Cut(doc[i+len(lead):], ".")
	depth, last := 0, ""
	for i, part := range strings.Split(sentence, "`") {
		if i%2 == 0 { // prose between code spans
			depth += strings.Count(part, "(") - strings.Count(part, ")")
			continue
		}
		switch {
		case depth == 0:
			fields, last = append(fields, part), part
		case last == "algorithm":
			algorithms = append(algorithms, part)
		}
	}
	if len(fields) == 0 || len(algorithms) == 0 {
		t.Fatalf("%s: parsed fields %v, algorithms %v from %q", name, fields, algorithms, sentence)
	}
	return fields, algorithms
}

// TestAPIDocJobFieldsMatchRequest holds the three places a client reads
// the POST /jobs body from — API.md's example, API.md's and README.md's
// "Accepted job fields" sentence — to jobRequest's json tags and to the
// algorithm values submitJob accepts, in both directions.
func TestAPIDocJobFieldsMatchRequest(t *testing.T) {
	want := map[string]bool{}
	rt := reflect.TypeOf(jobRequest{})
	for i := 0; i < rt.NumField(); i++ {
		want[rt.Field(i).Tag.Get("json")] = true
	}
	sameSet := func(what string, got []string) {
		t.Helper()
		seen := map[string]bool{}
		for _, k := range got {
			if seen[k] = true; !want[k] {
				t.Errorf("%s names %q, which jobRequest does not have", what, k)
			}
		}
		for k := range want {
			if !seen[k] {
				t.Errorf("%s omits jobRequest field %q", what, k)
			}
		}
	}

	api, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatalf("read API.md: %v", err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	_, section, ok := strings.Cut(string(api), "### `POST /jobs`")
	if !ok {
		t.Fatal("API.md has no POST /jobs section")
	}
	_, example, _ := strings.Cut(section, "```json\n")
	example, _, _ = strings.Cut(example, "```")
	var body map[string]interface{}
	if err := json.Unmarshal([]byte(example), &body); err != nil {
		t.Fatalf("API.md's POST /jobs example is not JSON: %v\n%s", err, example)
	}
	var keys []string
	for k := range body {
		keys = append(keys, k)
	}
	sameSet("API.md's POST /jobs example", keys)

	s, _ := newTestServerPair(t, Config{Workers: 1})
	accepts := func(algorithm string) bool {
		_, err := s.enqueueJob(jobRequest{Graph: "default", Subspace: 4, Algorithm: algorithm}, "")
		if err != nil && !errors.As(err, new(badRequest)) {
			t.Fatalf("submitting algorithm %q: %v", algorithm, err)
		}
		return err == nil
	}
	documented := map[string]bool{fmt.Sprint(body["algorithm"]): true}
	for name, doc := range map[string]string{"API.md": section, "README.md": string(readme)} {
		fields, algorithms := acceptedJobFields(t, name, doc)
		sameSet(name+`'s "Accepted job fields"`, fields)
		for _, a := range algorithms {
			documented[a] = true
		}
		if !slices.Contains(algorithms, jobs.Algorithm) {
			t.Errorf("%s does not document algorithm %q, which every job status reports", name, jobs.Algorithm)
		}
	}
	for a := range documented {
		if !accepts(a) {
			t.Errorf("documented algorithm %q is rejected by POST /jobs", a)
		}
	}
	for _, a := range []string{"parhde", "phde", "pivotmds", "multilevel", "prior"} {
		if !documented[a] && accepts(a) {
			t.Errorf("POST /jobs accepts algorithm %q, which no doc lists", a)
		}
	}
}

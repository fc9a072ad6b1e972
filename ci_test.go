package repro_bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// shellWords splits a command line on spaces, keeping quoted spans whole
// and dropping the quotes — enough shell for the workflow's go test lines.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quote := rune(0)
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote = r
		case r == ' ' || r == '\t':
			if cur.Len() > 0 {
				words = append(words, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		words = append(words, cur.String())
	}
	return words
}

// splitAlternatives splits a go test pattern on the top-level '|'.
func splitAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// workflowLines returns ci.yml's lines with backslash continuations
// joined, so a multi-line command is one line.
func workflowLines(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n")
}

var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the Test/Fuzz/Benchmark functions of the _test.go files
// a go test package argument covers (./dir/ or ./dir/...), build tags
// ignored.
func testFuncs(t *testing.T, pkgArg string) []string {
	t.Helper()
	dir := strings.TrimSuffix(pkgArg, "...")
	recursive := dir != pkgArg
	var names []string
	err := filepath.WalkDir(filepath.Clean(dir), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Clean(dir) && (!recursive || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing tests of %s: %v", pkgArg, err)
	}
	return names
}

// TestCIWorkflowPatternsMatchTests guards the workflow's -run / -fuzz /
// -bench lists against renames: `go test -run` passes when nothing
// matches, so a step naming a removed test would keep going green while
// checking nothing. Every '|' alternative of every pattern must match a
// function of the right kind in the packages its step names.
func TestCIWorkflowPatternsMatchTests(t *testing.T) {
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz"},
		"-fuzz":  {"Fuzz"},
		"-bench": {"Benchmark"},
	}
	checked := 0
	for _, line := range workflowLines(t) {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		words := shellWords(line[i:])
		patterns := map[string]string{}
		var pkgs []string
	scan:
		for w := 2; w < len(words); w++ {
			word := words[w]
			switch {
			case word == "|" || word == ">" || word == "&&":
				break scan
			case strings.HasPrefix(word, "./"):
				pkgs = append(pkgs, word)
			default:
				flagName, value, inline := strings.Cut(word, "=")
				if _, ok := kinds[flagName]; !ok {
					continue
				}
				if !inline && w+1 < len(words) {
					w++
					value = words[w]
				}
				patterns[flagName] = value
			}
		}
		if _, benching := patterns["-bench"]; benching {
			// `-run xxx` beside -bench is the idiom for "no tests, only
			// benchmarks": matching nothing is its purpose.
			delete(patterns, "-run")
		}
		for flagName, pattern := range patterns {
			var names []string
			for _, pkg := range pkgs {
				for _, name := range testFuncs(t, pkg) {
					for _, kind := range kinds[flagName] {
						if strings.HasPrefix(name, kind) {
							names = append(names, name)
						}
					}
				}
			}
			for _, alt := range splitAlternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %s %q: %v", flagName, pattern, err)
					continue
				}
				checked++
				matched := false
				for _, name := range names {
					if re.MatchString(name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("ci.yml: %s alternative %q matches no %v function in %v", flagName, alt, kinds[flagName], pkgs)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d pattern alternatives found in ci.yml; the parser has lost track of the workflow", checked)
	}
}

// TestCISpectralReferenceGate keeps the differential test and the
// eigensolver's dense check in their own verbose workflow step; the
// pattern check above makes sure both names still exist.
func TestCISpectralReferenceGate(t *testing.T) {
	lines := workflowLines(t)
	for i, line := range lines {
		if !strings.Contains(line, "- name: Spectral reference gate") {
			continue
		}
		for _, run := range lines[i+1:] {
			if strings.Contains(run, "- name:") {
				break
			}
			if !strings.Contains(run, "go test ") {
				continue
			}
			for _, want := range []string{"TestParHDESpanNearSpectral", "TestLOBPCGMatchesDense", " -v "} {
				if !strings.Contains(run, want) {
					t.Errorf("ci.yml: the spectral reference gate %q lacks %q", strings.TrimSpace(run), want)
				}
			}
			return
		}
	}
	t.Fatal("ci.yml has no \"Spectral reference gate\" step running go test")
}

var flagDecl = regexp.MustCompile(`\b(?:flag|fs)\.\w+\((?:&[\w.]+, )?"([\w-]+)"`)

// toolFlags lists the flag names the sources of ./cmd/<tool> register.
func toolFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("ci.yml names %s, which has no Go sources (%v)", dir, err)
	}
	names := map[string]bool{}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDecl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
	}
	return names
}

// TestCIWorkflowToolStepsMatchSources is the same guard for the steps
// that run the repo's own tools: a `go run ./cmd/<tool> -flag …` or
// `go build … ./cmd/<tool>` line naming a deleted tool or an unregistered
// flag would fail only on the runner.
func TestCIWorkflowToolStepsMatchSources(t *testing.T) {
	checked := 0
	for _, line := range workflowLines(t) {
		for _, verb := range []string{"go run ", "go build "} {
			i := strings.Index(line, verb)
			if i < 0 {
				continue
			}
			words := shellWords(line[i:])
			var flags map[string]bool // the tool's, once its directory is seen
			for _, word := range words[2:] {
				if word == "|" || word == ">" || word == "&&" {
					break
				}
				switch {
				case strings.HasPrefix(word, "./cmd/"):
					checked++
					flags = toolFlags(t, word)
				case verb == "go run " && flags != nil && strings.HasPrefix(word, "-"):
					name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
					if !flags[name] {
						t.Errorf("ci.yml: %q passes -%s, which the tool does not register", line[i:], name)
					}
				}
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d tool steps found in ci.yml; the parser has lost track of the workflow", checked)
	}
}

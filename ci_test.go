package lineartime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunNamesResolve keeps the CI workflow's test selections honest.
// `go test -run X` exits 0 with "no tests to run" when nothing matches X,
// so a renamed or deleted test would silently turn a CI step into a
// no-op. Every alternative of every -run/-fuzz pattern in ci.yml must
// match at least one Test or Fuzz function of the step's packages.
func TestCIRunNamesResolve(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		cmd := strings.TrimSpace(line)
		cmd = strings.TrimSpace(strings.TrimPrefix(cmd, "run:"))
		if !strings.HasPrefix(cmd, "go test ") {
			continue
		}
		args := shellFields(cmd)
		var patterns, pkgs []string
		for j := 0; j < len(args); j++ {
			a := args[j]
			switch {
			case a == "-run" || a == "-fuzz":
				if j+1 < len(args) {
					patterns = append(patterns, args[j+1])
					j++
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.Index(a, "=")+1:])
			case strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		names := testFuncNames(t, pkgs)
		for _, pat := range patterns {
			if pat == "^$" { // the idiom for "run no tests"
				continue
			}
			// Only the top level of a `Test/sub` pattern names functions.
			top, _, _ := strings.Cut(pat, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: bad pattern %q: %v", i+1, alt, err)
					continue
				}
				checked++
				if !anyMatch(re, names) {
					t.Errorf("ci.yml:%d: %q matches no test in %v", i+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run/-fuzz patterns in ci.yml")
	}
}

// shellFields splits a command line on blanks, honouring single and
// double quotes (all the quoting ci.yml's go test lines use).
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	var quote rune
	inField := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inField = r, true
		case r == ' ' || r == '\t':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// testFuncNames returns the top-level Test and Fuzz functions that
// go/parser finds in the given package directories.
func testFuncNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, dir := range pkgs {
		if strings.Contains(dir, "...") {
			t.Fatalf("ci.yml: cannot resolve -run over %s; name the packages", dir)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") {
					names = append(names, n)
				}
			}
		}
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

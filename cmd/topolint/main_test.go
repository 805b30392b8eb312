package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadFixtureFails runs the CLI against the known-bad package and
// checks both the exit code and that every planted violation is named.
func TestBadFixtureFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/src/badpkg"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"[detmap] float accumulation into total depends on map iteration order",
		"[seedflow]",
		"[nilness] nil dereference: it is provably nil in this branch",
		"[unusedwrite] unused write: it is a per-iteration copy",
		"[sortslice] sort.Slice's argument must be a slice; [4]int will panic",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q\nstdout:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "diagnostic(s)") {
		t.Errorf("stderr missing the diagnostic count summary: %q", stderr.String())
	}
}

// TestCleanPackagePasses lints a real repo package that must be clean.
func TestCleanPackagePasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"gputopo/internal/stats"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestAnalyzersSubset restricts the run so only the named analyzer can
// fire on the bad fixture.
func TestAnalyzersSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "sortslice", "./testdata/src/badpkg"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "[detmap]") {
		t.Errorf("detmap fired despite -analyzers sortslice:\n%s", stdout.String())
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nope", "./testdata/src/badpkg"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer(s): nope`) {
		t.Errorf("stderr = %q, want unknown-analyzer message", stderr.String())
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"deadcode", "detmap", "layering", "nilness", "seedflow", "sortslice", "unusedwrite", "wallclock", "wiretypes", "lintignore"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

// TestDeadcodeNeedsWholeModule: deadcode fires on `./...` at a module
// root and stays silent on every run that sees only part of the module,
// where it would report false positives.
func TestDeadcodeNeedsWholeModule(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":          "module deadmod\n\ngo 1.24\n",
		"internal/x/x.go": "package x\n\nfunc Live() {}\n\nfunc Dead() {}\n",
		"cmd/app/main.go": "package main\n\nimport \"deadmod/internal/x\"\n\nfunc main() { x.Live() }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-analyzers", "deadcode", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("whole-module exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "[deadcode] Dead is dead") || strings.Contains(out, "Live") {
		t.Errorf("whole-module run should report Dead alone:\n%s", out)
	}

	for _, args := range [][]string{
		{"-C", dir, "./internal/x"},
		{"-C", dir, "./internal/..."},
		{"-C", filepath.Join(dir, "internal"), "./..."},
	} {
		args = append([]string{"-analyzers", "deadcode"}, args...)
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 0 || stdout.Len() > 0 {
			t.Errorf("topolint %v: exit %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s",
				args, code, stdout.String(), stderr.String())
		}
	}
}

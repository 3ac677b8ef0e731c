package main

import (
	"encoding/json"
	"errors"

	"assignmentmotion"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const batchSrcA = `
graph a {
  entry s
  exit e
  block s {
    x := u + v
    y := u + v
    goto e
  }
  block e { out(x, y) }
}
`

const batchSrcB = `
graph b {
  entry s
  exit e
  block s {
    p := m * n
    if p > m then t else e
  }
  block t {
    q := m * n
    goto e
  }
  block e { out(p, q) }
}
`

func writeBatchDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range map[string]string{"a.fg": batchSrcA, "b.fg": batchSrcB, "a_dup.fg": batchSrcA} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestBatchDirectory(t *testing.T) {
	dir := writeBatchDir(t)
	out, err := runCLI(t, "-stats", "-parallel", "2", "-verify", "6", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# batch: 3 graphs, 3 ok (0 degraded), 0 failed", "cache=hit", "am iterations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBatchMultipleFiles(t *testing.T) {
	dir := writeBatchDir(t)
	a, b := filepath.Join(dir, "a.fg"), filepath.Join(dir, "b.fg")
	out, err := runCLI(t, "-parallel", "1", a, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cache=hit") {
		t.Errorf("duplicate file not served from cache:\n%s", out)
	}
	if strings.Count(out, " optimized ") != 3 {
		t.Errorf("expected 3 optimized lines:\n%s", out)
	}
}

func TestBatchJSON(t *testing.T) {
	dir := writeBatchDir(t)
	out, err := runCLI(t, "-json", "-timeout", "10s", dir)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Graphs    int `json:"graphs"`
		Succeeded int `json:"succeeded"`
		Results   []struct {
			Name    string `json:"name"`
			File    string `json:"file"`
			Program string `json:"program"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if rep.Graphs != 3 || rep.Succeeded != 3 || len(rep.Results) != 3 {
		t.Fatalf("report: %+v", rep)
	}
	// a.fg: the redundant u+v must be computed once.
	if prog := rep.Results[0].Program; !strings.Contains(prog, "h1 := u + v") {
		t.Errorf("optimized program missing hoisted temporary:\n%s", prog)
	}
}

func TestBatchRejectsUnsupportedFlags(t *testing.T) {
	dir := writeBatchDir(t)
	// Custom pipelines are a batch feature now; only unknown names fail,
	// with a did-you-mean suggestion.
	if _, err := runCLI(t, "-pass", "em", dir); err != nil {
		t.Errorf("custom pipeline rejected in batch mode: %v", err)
	}
	if _, err := runCLI(t, "-pass", "emc", dir); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("unknown pass: want did-you-mean error, got %v", err)
	}
	if _, err := runCLI(t, "-dot", dir); err == nil {
		t.Error("-dot accepted in batch mode")
	}
	if _, err := runCLI(t, "-run", "a=1", dir); err == nil {
		t.Error("-run accepted in batch mode")
	}
	a := filepath.Join(dir, "a.fg")
	if _, err := runCLI(t, a, "-"); err == nil {
		t.Error("stdin accepted in batch mode")
	}
}

func TestBatchEmptyDirectory(t *testing.T) {
	if _, err := runCLI(t, t.TempDir()); err == nil || !strings.Contains(err.Error(), "no .fg files") {
		t.Errorf("err = %v", err)
	}
}

func TestBatchParseErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fg")
	if err := os.WriteFile(bad, []byte("graph oops {"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.fg")
	if err := os.WriteFile(good, []byte(batchSrcA), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, good, bad); err == nil || !strings.Contains(err.Error(), "bad.fg") {
		t.Errorf("err = %v", err)
	}
}

// exitCodeOf extracts the exit code run() would map an error to.
func exitCodeOf(err error) int {
	if err == nil {
		return exitOK
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return exitUsage
}

func TestExitCodes(t *testing.T) {
	dir := writeBatchDir(t)
	a := filepath.Join(dir, "a.fg")
	bad := filepath.Join(dir, "bad.fg")
	if err := os.WriteFile(bad, []byte("graph oops {"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := runCLI(t, a)
	if code := exitCodeOf(err); code != exitOK {
		t.Errorf("clean run: exit %d (%v), want %d", code, err, exitOK)
	}
	_, err = runCLI(t, "-pass", "emc", a)
	if code := exitCodeOf(err); code != exitUsage {
		t.Errorf("unknown pass: exit %d (%v), want %d", code, err, exitUsage)
	}
	_, err = runCLI(t, "-on-error", "explode", a)
	if code := exitCodeOf(err); code != exitUsage {
		t.Errorf("bad -on-error: exit %d (%v), want %d", code, err, exitUsage)
	}
	_, err = runCLI(t, bad)
	if code := exitCodeOf(err); code != exitParse {
		t.Errorf("parse error (single): exit %d (%v), want %d", code, err, exitParse)
	}
	_, err = runCLI(t, a, bad)
	if code := exitCodeOf(err); code != exitParse {
		t.Errorf("parse error (batch): exit %d (%v), want %d", code, err, exitParse)
	}
}

// TestExitCodePrecedence pins the exit-code contract for mixed batches:
// failure (exit 3) beats degradation (exit 4). A batch holding both
// failed and degraded graphs must exit 3 — degraded results are still
// valid programs, failed ones produced nothing, and the exit code
// reports the worst outcome.
func TestExitCodePrecedence(t *testing.T) {
	pol := assignmentmotion.RecoverSkip
	cases := []struct {
		name             string
		failed, degraded int
		want             int
	}{
		{"clean", 0, 0, exitOK},
		{"degraded-only", 0, 2, exitDegraded},
		{"failed-only", 2, 0, exitOptimizeFailed},
		{"failed-beats-degraded", 1, 3, exitOptimizeFailed},
		{"all-failed-plus-degraded", 5, 5, exitOptimizeFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := batchExitError(tc.failed, tc.degraded, 10, pol)
			if code := exitCodeOf(err); code != tc.want {
				t.Errorf("batchExitError(failed=%d, degraded=%d) -> exit %d; want %d",
					tc.failed, tc.degraded, code, tc.want)
			}
		})
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSavedTraceSummaryMatchesDirectRun: a trace written with -o and
// re-read with -in must summarize exactly as the run that produced it.
func TestSavedTraceSummaryMatchesDirectRun(t *testing.T) {
	f := filepath.Join(t.TempDir(), "moldyn.trace")
	var direct, saved, loaded bytes.Buffer
	if err := run(&direct, []string{"-app", "moldyn", "-scale", "small", "-summary"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&saved, []string{"-app", "moldyn", "-scale", "small", "-o", f}); err != nil {
		t.Fatal(err)
	}
	if saved.Len() != 0 {
		t.Errorf("-o without -summary printed to stdout:\n%s", saved.String())
	}
	if err := run(&loaded, []string{"-in", f, "-summary"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(direct.String(), "trace: app=moldyn") {
		t.Fatalf("unexpected summary:\n%s", direct.String())
	}
	if !bytes.Equal(direct.Bytes(), loaded.Bytes()) {
		t.Fatalf("summary of the saved trace differs from the direct run:\n--- direct ---\n%s\n--- loaded ---\n%s",
			direct.String(), loaded.String())
	}
}

// TestTruncatedTraceFails: a trace missing its last byte must fail the
// footer check loudly rather than load as a shorter trace.
func TestTruncatedTraceFails(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "moldyn.trace")
	if err := run(&bytes.Buffer{}, []string{"-app", "moldyn", "-scale", "small", "-o", f}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(&bytes.Buffer{}, []string{"-in", cut, "-summary"})
	if err == nil || !strings.Contains(err.Error(), "truncated file?") {
		t.Fatalf("truncated trace: error %v, want the footer's truncation error", err)
	}
}

func TestNeedsAppOrIn(t *testing.T) {
	if err := run(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("ran with neither -app nor -in")
	}
}

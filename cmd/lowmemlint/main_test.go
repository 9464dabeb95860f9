package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The exit-code contract: 0 clean / artifact written, 1 findings, 2 usage or
// load failure. Tests drive run() directly; the process cwd is this package's
// directory, inside the module, so the loader resolves the module root.

func TestExitCodeUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"bad pattern", []string{"./no/such/dir"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.argv); got != 2 {
				t.Fatalf("run(%q) = %d, want 2", tc.argv, got)
			}
		})
	}
}

func TestExitCodeFindings(t *testing.T) {
	// The determinism fixture contains deliberate violations.
	argv := []string{"../../internal/lint/testdata/src/determinism"}
	if got := run(argv); got != 1 {
		t.Fatalf("run(%q) = %d, want 1", argv, got)
	}
}

func TestExitCodeClean(t *testing.T) {
	for _, argv := range [][]string{
		{"-list"},
		{"../../internal/congest"},
	} {
		if got := run(argv); got != 0 {
			t.Fatalf("run(%q) = %d, want 0", argv, got)
		}
	}
}

func TestGraphFlags(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "protocol.json")
	argv := []string{"-graph", jsonPath, "../../internal/..."}
	if got := run(argv); got != 0 {
		t.Fatalf("run(%q) = %d, want 0", argv, got)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"lowmemlint/protocol-v2"`) {
		t.Errorf("graph JSON missing schema marker:\n%.200s", data)
	}
	if strings.Contains(string(data), `"line"`) {
		t.Errorf("graph JSON records line numbers:\n%.200s", data)
	}
}

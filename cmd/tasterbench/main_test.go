package main

import (
	"os"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/experiments"
)

// The experiment names live in the package comment's usage line, in
// experimentNames (the -experiment help text and the unknown-name error) and
// in run's switch; this test is what ties the three together.
func TestEveryListedExperimentRuns(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "//	tasterbench [-experiment "+experimentNames+"]") {
		t.Fatalf("package comment's usage line does not list exactly %s", experimentNames)
	}
	tiny := experiments.Config{SF: 0.002, Queries: 12, Seed: 7}
	for _, name := range strings.Split(experimentNames, "|") {
		out, err := run(name, "tpch", tiny)
		if err != nil {
			t.Fatalf("-experiment %s: %v", name, err)
		}
		if strings.TrimSpace(out) == "" {
			t.Fatalf("-experiment %s printed an empty report", name)
		}
	}
}

func TestUnknownExperimentListsTheValidNames(t *testing.T) {
	for _, name := range []string{"serving", "figg3", ""} {
		out, err := run(name, "tpch", experiments.Config{})
		if err == nil {
			t.Fatalf("-experiment %q ran (%d bytes); want the unknown-experiment error", name, len(out))
		}
		if msg := err.Error(); !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, experimentNames) {
			t.Fatalf("-experiment %q: error %q does not name the valid experiments", name, msg)
		}
	}
}

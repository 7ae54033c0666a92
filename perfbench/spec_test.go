package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecNamesMeasured checks that every metric BENCHMARK.json names is
// set somewhere in this package, so a renamed metric cannot silently
// report 0.
func TestSpecNamesMeasured(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		if !strings.Contains(src.String(), `"`+d.Name+`"`) {
			t.Errorf("metric %s is never set", d.Name)
		}
	}
}

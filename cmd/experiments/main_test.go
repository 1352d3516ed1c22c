package main

import (
	"bytes"
	"strings"
	"testing"
)

// -only is validated by exact match before anything runs: a prefix of a
// real name ("fig1", "tab") used to pass a substring check that ran after
// the experiments, so it ran nothing and exited 0.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"fig1", "tab", "paropt", "table2 "} {
		var stderr bytes.Buffer
		if code := run([]string{"-only", name}, &stderr); code != 2 {
			t.Errorf("-only %q: exit code %d, want 2", name, code)
		}
		if list := strings.Join(experiments, "|"); !strings.Contains(stderr.String(), list) {
			t.Errorf("-only %q: error text %q does not list %q", name, stderr.String(), list)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -only is validated by exact match before anything runs: a prefix of a
// real name ("fig1", "tab") used to pass a substring check that ran after
// the experiments, so it ran nothing and exited 0.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"fig1", "tab", "paropt", "table2 ", "colscan", "plancache", "outerdpe"} {
		var stderr bytes.Buffer
		if code := run([]string{"-only", name}, &stderr); code != 2 {
			t.Errorf("-only %q: exit code %d, want 2", name, code)
		}
		if list := strings.Join(experiments, "|"); !strings.Contains(stderr.String(), list) {
			t.Errorf("-only %q: error text %q does not list %q", name, stderr.String(), list)
		}
	}
}

// One small Table 2 run through the command: it exits 0 and writes
// BENCH_table2.json in the stable record schema.
func TestTable2WritesBenchJSON(t *testing.T) {
	dir := t.TempDir()
	var stderr bytes.Buffer
	args := []string{"-only", "table2", "-rows", "3000", "-iters", "1", "-json", "-json-dir", dir}
	if code := run(args, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_table2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []benchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("BENCH_table2.json: %v", err)
	}
	for _, r := range recs {
		if r.Experiment == "table2" && r.Metric == "overhead_pct@42parts" {
			return
		}
	}
	t.Errorf("BENCH_table2.json lacks overhead_pct@42parts: %s", data)
}

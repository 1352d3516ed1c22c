package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildMppsim compiles the mppsim binary once per test binary run.
func buildMppsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mppsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSignalExitsGracefully locks in the contract that SIGTERM and SIGINT
// are handled identically: an interrupt at the prompt prints "interrupted"
// and exits 130, the same code the timeout(1) convention assigns to
// SIGINT. Containerized runs rely on SIGTERM taking this path instead of
// the Go runtime's default kill.
func TestSignalExitsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a child process")
	}
	bin := buildMppsim(t)
	for _, tc := range []struct {
		name string
		sig  os.Signal
	}{
		{"SIGTERM", syscall.SIGTERM},
		{"SIGINT", os.Interrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, "-sales", "1")
			stdin, err := cmd.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			defer stdin.Close()
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = cmd.Stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()

			// Wait for the shell to reach its prompt, then signal it.
			outCh := make(chan string, 1)
			go func() {
				var sb strings.Builder
				br := bufio.NewReader(stdout)
				readyAt := false
				for {
					chunk := make([]byte, 4096)
					n, err := br.Read(chunk)
					sb.Write(chunk[:n])
					if !readyAt && strings.Contains(sb.String(), "ready.") {
						readyAt = true
						cmd.Process.Signal(tc.sig)
					}
					if err != nil {
						outCh <- sb.String()
						return
					}
				}
			}()

			// Read stdout to EOF before Wait: Wait closes the pipe, so a
			// reader still draining it could lose the final line.
			var out string
			select {
			case out = <-outCh:
			case <-time.After(30 * time.Second):
				t.Fatal("mppsim did not exit after signal")
			}
			err = cmd.Wait()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error with code 130, got %v", err)
			}
			if code := ee.ExitCode(); code != 130 {
				t.Fatalf("exit code = %d, want 130", code)
			}
			if !strings.Contains(out, "interrupted") {
				t.Fatalf("output missing %q:\n%s", "interrupted", out)
			}
		})
	}
}

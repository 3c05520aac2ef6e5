package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as rvmabench itself: with
// RVMABENCH_MAIN=1 set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RVMABENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShardsBelowOneRejected: -shards 0 (the removed single-heap mode)
// and negative counts fail fast with a message naming the flag, before
// any experiment runs.
func TestShardsBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		cmd := exec.Command(os.Args[0], "-shards", n, "fig4")
		cmd.Env = append(os.Environ(), "RVMABENCH_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-shards %s: err %v, want exit status 2", n, err)
		}
		if !strings.Contains(stderr.String(), "-shards must be at least 1") {
			t.Fatalf("-shards %s: stderr %q does not name the flag", n, stderr.String())
		}
	}
}

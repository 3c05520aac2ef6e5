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

// TestUsageErrorsExitTwo: every bad flag value and unknown experiment
// exits 2 with a message naming it, before any experiment runs. -shards 0
// is the removed single-heap mode; a zero count flag keeps its default, so
// only negative ones are errors.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "0", "fig4"}, "-shards must be at least 1"},
		{[]string{"-shards", "-2", "fig4"}, "-shards must be at least 1"},
		{[]string{"-nodes", "-5", "fig6"}, "-nodes must not be negative"},
		{[]string{"-iters", "-1", "fig4"}, "-iters must not be negative"},
		{[]string{"-runs", "-1", "fig4"}, "-runs must not be negative"},
		{[]string{"-workers", "-1", "fig4"}, "-workers must not be negative"},
		{[]string{"-retry-budget", "-1", "faults"}, "-retry-budget must not be negative"},
		{[]string{"-tail-k", "-1", "fig7"}, "-tail-k must not be negative"},
		{[]string{"-drop-rate", "0.05,x", "faults"}, `bad -drop-rate entry "x"`},
		{[]string{"-drop-rate", "1.5", "faults"}, `bad -drop-rate entry "1.5"`},
		{[]string{"fig4", "fig9"}, `unknown experiment "fig9"`},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "RVMABENCH_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: err %v, want exit status 2", c.args, err)
			continue
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr %q does not contain %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %d bytes of tables before failing", c.args, stdout.Len())
		}
	}
}

// Package examples holds the test that runs every example program.
package examples

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/sim"
)

// TestEveryExampleRuns builds every example, runs it, and checks it exits
// 0 printing its verdict line. A new example directory without a verdict
// here fails the test.
func TestEveryExampleRuns(t *testing.T) {
	verdicts := map[string]string{
		"quickstart":     "receiver: payload intact: true",
		"faulttolerance": "consumer: recovered state byte-identical to timestep 3: true",
		"incast":         "server stats: 1 drops, 1 NACKs, 1 catch-all hits",
		"mpirma":         "rank 1: rolled-back halos are byte-exact",
		"stream":         `client: "POST /rewind?epoch=3" -> "200 OK: POST /rewind?epoch=3"`,
	}
	dirs, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != len(verdicts) {
		t.Errorf("%d examples, %d verdicts: %v", len(dirs), len(verdicts), dirs)
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	if sim.DebugEnabled {
		args = append(args, "-tags", "simdebug")
	}
	if out, err := exec.Command("go", append(args, "./...")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, main := range dirs {
		name := filepath.Dir(main)
		verdict, ok := verdicts[name]
		if !ok {
			t.Errorf("%s: no verdict line to check", name)
			continue
		}
		out, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !strings.Contains(string(out), verdict) {
			t.Errorf("%s: output lacks %q:\n%s", name, verdict, out)
		}
	}
}

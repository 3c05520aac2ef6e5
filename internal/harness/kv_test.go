package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvma/internal/fabric"
	"rvma/internal/ledger"
	"rvma/internal/topology"
)

// readDirBytes reads every file in dir into a name -> contents map.
func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = data
	}
	return files
}

// kvTableArtifacts renders the KV dataplane table at a given worker and
// shard count and returns the table bytes plus the per-cell canonical
// ledgers (file name -> parsed ledger).
func kvTableArtifacts(t *testing.T, workers, shards int) ([]byte, map[string]ledger.Ledger) {
	t.Helper()
	o := DefaultOptions()
	o.Nodes = 32
	o.Workers = workers
	o.Shards = shards
	o.LedgerDir = t.TempDir()
	var buf bytes.Buffer
	KVTable(o).Fprint(&buf)
	if strings.Contains(buf.String(), "FAILED") {
		t.Fatalf("workers=%d shards=%d: KV table has failed cells:\n%s", workers, shards, buf.String())
	}
	ledgers := make(map[string]ledger.Ledger)
	for name, data := range readDirBytes(t, o.LedgerDir) {
		var led ledger.Ledger
		if err := json.Unmarshal(data, &led); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ledgers[name] = led
	}
	return buf.Bytes(), ledgers
}

// TestKVTableSmoke pins the shape of the KV table at the default single
// shard: every sweep row renders with real quantiles and goodput, the
// loss rows appear, and the population note reports the >= 2^20
// simulated-client fan-in.
func TestKVTableSmoke(t *testing.T) {
	table, _ := kvTableArtifacts(t, 1, 1)
	s := string(table)
	for _, want := range []string{"p99.9", "cas-fail", "simulated clients", "overload"} {
		if !strings.Contains(s, want) {
			t.Errorf("KV table missing %q:\n%s", want, s)
		}
	}
	rows := 0
	for _, line := range strings.Split(s, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "RVMA") || strings.HasPrefix(trimmed, "RDMA") {
			rows++
			if strings.Contains(line, " - ") {
				t.Errorf("row has blank cells: %q", line)
			}
		}
	}
	if want := len(kvSkews)*len(kvLoads)*2 + 2; rows != want {
		t.Errorf("KV table has %d data rows, want %d:\n%s", rows, want, s)
	}
}

// TestKVTableIdenticalAcrossWorkersAndShards is the acceptance gate for
// the KV dataplane figure: the rendered table must be byte-identical at
// worker counts {1, 4} and shard counts {1, 4}, and every cell's
// canonical-ledger chain head and event count must match across the
// whole matrix. This covers both transports, all skew/load points, and
// the 5% loss + recovery rows in one sweep.
func TestKVTableIdenticalAcrossWorkersAndShards(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is 4 full KV sweeps; skipped in -short")
	}
	t.Parallel()
	baseTable, baseLedgers := kvTableArtifacts(t, 1, 1)
	if len(baseLedgers) == 0 {
		t.Fatal("baseline wrote no ledgers")
	}
	for name, led := range baseLedgers {
		if led.Mode != ledger.ModeCanonical {
			t.Fatalf("%s: ledger mode %q, want %q", name, led.Mode, ledger.ModeCanonical)
		}
		if led.Events == 0 || led.ChainHead == "" {
			t.Fatalf("%s: empty canonical ledger (events=%d head=%q)", name, led.Events, led.ChainHead)
		}
		if led.Run == nil || led.Run.Motif != "kv" {
			t.Fatalf("%s: ledger run spec does not carry the kv motif: %+v", name, led.Run)
		}
	}
	for _, cfg := range []struct{ workers, shards int }{{4, 1}, {1, 4}, {4, 4}} {
		table, ledgers := kvTableArtifacts(t, cfg.workers, cfg.shards)
		if !bytes.Equal(baseTable, table) {
			t.Errorf("workers=%d shards=%d: table diverged from workers=1 shards=1:\n%s",
				cfg.workers, cfg.shards, firstDiffContext(baseTable, table))
		}
		if len(ledgers) != len(baseLedgers) {
			t.Fatalf("workers=%d shards=%d: %d ledgers, baseline %d",
				cfg.workers, cfg.shards, len(ledgers), len(baseLedgers))
		}
		for name, b := range baseLedgers {
			g, ok := ledgers[name]
			if !ok {
				t.Errorf("workers=%d shards=%d: missing ledger %s", cfg.workers, cfg.shards, name)
				continue
			}
			if g.ChainHead != b.ChainHead {
				t.Errorf("workers=%d shards=%d %s: chain head %s, baseline %s",
					cfg.workers, cfg.shards, name, g.ChainHead, b.ChainHead)
			}
			if g.Events != b.Events {
				t.Errorf("workers=%d shards=%d %s: %d events, baseline %d",
					cfg.workers, cfg.shards, name, g.Events, b.Events)
			}
		}
	}
}

// TestKVRunSpecRoundTrip checks a KV cell's ledger replays: the embedded
// spec leaves every KV knob but skew and gap at zero, and the replay must
// resolve them against the same topology-rounded rank count to rebuild
// identical proxy plans and reach the recorded chain head.
func TestKVRunSpecRoundTrip(t *testing.T) {
	o := DefaultOptions()
	o.Nodes = 32
	o.Shards = 2
	o.LedgerDir = t.TempDir()
	rs := o.spec(MotifKV, "rvma", NetConfig{"dragonfly/adaptive", topology.KindDragonfly, fabric.RouteAdaptive}, 100)
	rs.KVSkew, rs.KVGapNs = 1.2, 500
	rs.Drop, rs.Recover, rs.RetryBudget = 0.05, true, 6
	out := runOneCell(o, rs, newCellRegistry(o.Shards))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var l ledger.Ledger
	if err := json.Unmarshal(out.Ledger, &l); err != nil {
		t.Fatal(err)
	}
	if l.Run == nil || *l.Run != rs {
		t.Fatalf("ledger embeds %+v, want %+v", l.Run, rs)
	}
	replay, _, err := ReplaySpec(&l, ReplayOptions{EpochEvents: l.EpochEvents})
	if err != nil {
		t.Fatal(err)
	}
	if replay.ChainHead != l.ChainHead || replay.Events != l.Events {
		t.Fatalf("replay chain head %s (%d events), recorded %s (%d events)",
			replay.ChainHead, replay.Events, l.ChainHead, l.Events)
	}
}

//go:build simdebug

package fabric

import (
	"strings"
	"testing"
)

// A handler that keeps a packet past its return and injects it later
// schedules a packet the fabric already recycled; simdebug catches it.
func TestDebugCatchesRetainedPacket(t *testing.T) {
	eng, net := twoNodeNet(t, DefaultConfig())
	var kept *Packet
	net.AttachHost(0, func(*Packet) {})
	net.AttachHost(1, func(pkt *Packet) { kept = pkt })
	eng.Schedule(0, func() { net.Inject(net.NewPacket(0, 1, 64, nil)) })
	eng.Run()
	if kept == nil {
		t.Fatal("packet not delivered")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "freed packet scheduled again") {
			t.Fatalf("panic = %q, want the freed-packet invariant", msg)
		}
	}()
	net.Inject(kept)
}

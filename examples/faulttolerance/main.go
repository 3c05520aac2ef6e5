// Fault tolerance: hardware communication rollback with RVMA's multi-epoch
// buffers (paper §IV-F).
//
// A producer streams one buffer of simulation state per "timestep" to a
// consumer's mailbox. The consumer's window retains completed buffers per
// epoch (the "bucket of buffers"). When a failure is injected mid-run, the
// consumer rewinds the window — the MPIX_Rewind(MPI_Win) operation the
// paper sketches — recovering the last known-good timestep's buffer
// directly from the NIC's history, with no software logging.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"bytes"
	"fmt"
	"log"

	"rvma"
	"rvma/internal/sim"
)

const (
	mailbox    rvma.VAddr = 0xFA17
	stateBytes            = 4096
	timesteps             = 6
	failAt                = 4 // the timestep whose transfer is interrupted
)

// stateFor fabricates timestep t's payload; byte 0 identifies it.
func stateFor(t int) []byte {
	b := make([]byte, stateBytes)
	for i := range b {
		b[i] = byte(t*31 + i%97)
	}
	b[0] = byte(t)
	return b
}

// producer sends one timestep's state per put, computing 5 µs between
// puts, and fails mid-transfer at timestep failAt. It waits more than
// once, so it is a step record: step runs it from one wait to the next.
type producer struct {
	eng *sim.Engine
	ep  *rvma.Endpoint
	t   int // the timestep being sent
}

func (p *producer) step() {
	if p.t++; p.t == failAt {
		// Failure injection: the producer dies mid-transfer — only the
		// first half of the timestep's state goes out, so the consumer's
		// buffer for epoch failAt never completes.
		fmt.Printf("[%v] producer: timestep %d: FAILURE after half the state\n", p.eng.Now(), p.t)
		p.ep.Put(1, mailbox, 0, stateFor(p.t)[:stateBytes/2])
		return
	}
	p.ep.Put(1, mailbox, 0, stateFor(p.t)).Local.OnComplete(p.sent)
}

// sent runs once timestep t's put has completed locally.
func (p *producer) sent() {
	fmt.Printf("[%v] producer: timestep %d sent\n", p.eng.Now(), p.t)
	p.eng.Schedule(5*sim.Microsecond, p.step) // compute for the next step
}

// consumer, a step record too, waits for each timestep's buffer until the
// failure, detects it by timeout, and recovers from the window history.
type consumer struct {
	eng  *sim.Engine
	ep   *rvma.Endpoint
	win  *rvma.Window
	t    int         // the timestep waited for
	next *sim.Future // timestep t's completion
}

func (c *consumer) step() {
	if c.t++; c.t < failAt {
		c.next = c.win.NextCompletion()
		c.next.OnComplete(c.completed)
		return
	}
	// The next completion never comes. Detect the failure by timeout.
	c.eng.Schedule(200*sim.Microsecond, c.rollBack)
}

// completed runs once timestep t's buffer has completed.
func (c *consumer) completed() {
	buf := c.next.Value().(*rvma.Buffer)
	fmt.Printf("[%v] consumer: timestep %d complete in buffer %#x (epoch %d)\n",
		c.eng.Now(), c.ep.Memory().Read(buf.Region.Base, 1)[0], buf.Region.Base, c.win.Epoch())
	c.step()
}

// rollBack rolls the window back once the failure is detected.
func (c *consumer) rollBack() {
	fmt.Printf("[%v] consumer: timestep %d never completed — node failure detected\n",
		c.eng.Now(), failAt)

	// Hardware rollback: fetch the last completed epoch's buffer from the
	// NIC's history ring (no software log was ever kept).
	good, err := c.win.Rewind(1)
	if err != nil {
		log.Fatalf("rewind: %v", err)
	}
	recovered := c.ep.Memory().Read(good.Region.Base, stateBytes)
	fmt.Printf("[%v] consumer: MPIX_Rewind-style recovery -> epoch %d buffer %#x holds timestep %d\n",
		c.eng.Now(), good.Epoch, good.Region.Base, recovered[0])

	fmt.Printf("[%v] consumer: recovered state byte-identical to timestep %d: %v\n",
		c.eng.Now(), failAt-1, bytes.Equal(recovered, stateFor(failAt-1)))

	// Deeper rewind also works while history lasts.
	if older, err := c.win.Rewind(2); err == nil {
		fmt.Printf("[%v] consumer: Rewind(2) reaches timestep %d as well\n",
			c.eng.Now(), c.ep.Memory().Read(older.Region.Base, 1)[0])
	}
}

func main() {
	ecfg := rvma.DefaultConfig()
	ecfg.HistoryDepth = timesteps // windows retain every epoch for rewind
	tb, err := rvma.NewTestbed(2, rvma.TestbedConfig{Endpoint: &ecfg, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	eng := tb.Engine

	win, err := tb.Endpoints[1].InitWindow(mailbox, stateBytes, rvma.EpochBytes)
	if err != nil {
		log.Fatal(err)
	}
	// Keep a bucket of buffers posted: one per timestep.
	for i := 0; i < timesteps; i++ {
		if _, err := win.PostBuffer(stateBytes); err != nil {
			log.Fatal(err)
		}
	}

	eng.Schedule(0, (&producer{eng: eng, ep: tb.Endpoints[0]}).step)
	eng.Schedule(0, (&consumer{eng: eng, ep: tb.Endpoints[1], win: win}).step)
	eng.Run()
	fmt.Printf("simulation finished at %v\n", eng.Now())
}

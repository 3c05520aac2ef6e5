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
	"fmt"
	"log"

	"rvma"
	"rvma/internal/sim"
)

const (
	stateBytes = 4096
	timesteps  = 6
	failAt     = 4 // the timestep whose transfer is interrupted
)

func main() {
	ecfg := rvma.DefaultConfig()
	ecfg.HistoryDepth = timesteps // windows retain every epoch for rewind
	tb, err := rvma.NewTestbed(2, rvma.TestbedConfig{Endpoint: &ecfg, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	eng, producer, consumer := tb.Engine, tb.Endpoints[0], tb.Endpoints[1]

	const mailbox rvma.VAddr = 0xFA17
	win, err := consumer.InitWindow(mailbox, stateBytes, rvma.EpochBytes)
	if err != nil {
		log.Fatal(err)
	}
	// Keep a bucket of buffers posted: one per timestep.
	for i := 0; i < timesteps; i++ {
		if _, err := win.PostBuffer(stateBytes); err != nil {
			log.Fatal(err)
		}
	}

	// stateFor fabricates timestep t's payload; byte 0 identifies it.
	stateFor := func(t int) []byte {
		b := make([]byte, stateBytes)
		for i := range b {
			b[i] = byte(t*31 + i%97)
		}
		b[0] = byte(t)
		return b
	}

	eng.Spawn("producer", func(p *sim.Process) {
		for t := 1; t <= timesteps; t++ {
			if t == failAt {
				// Failure injection: the producer dies mid-transfer — only
				// the first half of the timestep's state goes out, so the
				// consumer's buffer for epoch failAt never completes.
				fmt.Printf("[%v] producer: timestep %d: FAILURE after half the state\n", p.Now(), t)
				producer.Put(1, mailbox, 0, stateFor(t)[:stateBytes/2])
				return
			}
			op := producer.Put(1, mailbox, 0, stateFor(t))
			p.Wait(op.Local)
			fmt.Printf("[%v] producer: timestep %d sent\n", p.Now(), t)
			p.Sleep(5 * sim.Microsecond) // compute for the next step
		}
	})

	eng.Spawn("consumer", func(p *sim.Process) {
		for t := 1; t < failAt; t++ {
			f := win.NextCompletion()
			p.Wait(f)
			buf := f.Value().(*rvma.Buffer)
			fmt.Printf("[%v] consumer: timestep %d complete in buffer %#x (epoch %d)\n",
				p.Now(), consumer.Memory().Read(buf.Region.Base, 1)[0], buf.Region.Base, win.Epoch())
		}

		// The next completion never comes. Detect the failure by timeout.
		p.Sleep(200 * sim.Microsecond)
		fmt.Printf("[%v] consumer: timestep %d never completed — node failure detected\n",
			p.Now(), failAt)

		// Hardware rollback: fetch the last completed epoch's buffer from
		// the NIC's history ring (no software log was ever kept).
		good, err := win.Rewind(1)
		if err != nil {
			log.Fatalf("rewind: %v", err)
		}
		recovered := consumer.Memory().Read(good.Region.Base, stateBytes)
		fmt.Printf("[%v] consumer: MPIX_Rewind-style recovery -> epoch %d buffer %#x holds timestep %d\n",
			p.Now(), good.Epoch, good.Region.Base, recovered[0])

		want := stateFor(failAt - 1)
		intact := true
		for i := range want {
			if recovered[i] != want[i] {
				intact = false
				break
			}
		}
		fmt.Printf("[%v] consumer: recovered state byte-identical to timestep %d: %v\n",
			p.Now(), failAt-1, intact)

		// Deeper rewind also works while history lasts.
		if older, err := win.Rewind(2); err == nil {
			fmt.Printf("[%v] consumer: Rewind(2) reaches timestep %d as well\n",
				p.Now(), consumer.Memory().Read(older.Region.Base, 1)[0])
		}
	})

	eng.Run()
	fmt.Printf("simulation finished at %v\n", eng.Now())
}

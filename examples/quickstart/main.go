// Quickstart: the smallest complete RVMA program.
//
// Two simulated nodes are wired through one switch. The receiver opens a
// window on mailbox 0x11FF0011 with a byte-counted completion threshold
// and posts a buffer; the sender puts a message to that mailbox knowing
// nothing but (node, mailbox) — no physical address, no handshake. The
// receiver's NIC counts arriving bytes and, at the threshold, writes the
// buffer's address and length to the completion pointer, waking the
// Monitor/MWait watcher.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"rvma"
)

func main() {
	// Simulation substrate: two RVMA endpoints behind one switch.
	tb, err := rvma.NewTestbed(2, rvma.TestbedConfig{})
	if err != nil {
		log.Fatal(err)
	}
	eng, sender, receiver := tb.Engine, tb.Endpoints[0], tb.Endpoints[1]

	// Receiver: open a window on the mailbox, threshold = message size in
	// bytes, and post one buffer. This is RVMA_Init_window +
	// RVMA_Post_buffer from the paper's API (§III-C).
	const mailbox rvma.VAddr = 0x11FF0011
	const msgSize = 1024
	win, err := receiver.InitWindow(mailbox, msgSize, rvma.EpochBytes)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := win.PostBuffer(msgSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("receiver: window on mailbox %#x, buffer at %#x, completion pointer at %#x\n",
		win.VAddr(), buf.Region.Base, buf.NotificationAddr())

	// The message: the sender needs only (node 1, mailbox) — that is the
	// whole point of virtual addresses.
	payload := make([]byte, msgSize)
	for i := range payload {
		payload[i] = byte(i % 251)
	}

	// Each actor waits once, so it is an event and one continuation: the
	// completion runs the continuation at its own simulated instant.
	eng.Schedule(0, func() {
		fmt.Printf("[%v] sender: putting %d bytes to node 1, mailbox %#x (no handshake!)\n",
			eng.Now(), msgSize, mailbox)
		op := sender.Put(1, mailbox, 0, payload)
		op.Local.OnComplete(func() {
			fmt.Printf("[%v] sender: local completion — send buffer reusable\n", eng.Now())
		})
	})

	eng.Schedule(0, func() {
		// Arm Monitor/MWait on the completion pointer and sleep until the
		// NIC's completion unit writes it.
		n := receiver.WatchBuffer(buf)
		n.Done.OnComplete(func() {
			head, length := buf.Cell.Get()
			fmt.Printf("[%v] receiver: completion pointer = (head %#x, len %d), epoch now %d\n",
				eng.Now(), head, length, win.Epoch())
			got := receiver.Memory().Read(head, length)
			fmt.Printf("[%v] receiver: payload intact: %v\n", eng.Now(), bytes.Equal(got, payload))
		})
	})

	eng.Run()
	fmt.Printf("simulation finished at %v after %d events\n", eng.Now(), eng.EventsExecuted())
}

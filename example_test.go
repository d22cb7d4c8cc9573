package hpfq_test

import (
	"fmt"

	"hpfq"
)

// ExampleNewDataplane runs a flat WF²Q+ engine end to end: two classes
// sharing a 1 Mb/s link 3:1, a backlog staged before the pump starts, and
// an in-memory pipe standing in for the egress socket. Close drains the
// backlog through the pacer, so the pipe then holds every datagram in the
// order the scheduler released them.
func ExampleNewDataplane() {
	dp, err := hpfq.NewDataplane(hpfq.WF2QPlus, 1e6, hpfq.WithQueueCap(64))
	if err != nil {
		panic(err)
	}
	dp.AddClass(0, 0.75e6)
	dp.AddClass(1, 0.25e6)
	for i := 0; i < 4; i++ {
		for class := 0; class < 2; class++ {
			payload := make([]byte, 100)
			payload[0] = byte(class)
			if err := dp.Ingest(class, payload); err != nil {
				panic(err)
			}
		}
	}

	pipe := hpfq.NewPacketPipe(16)
	if err := dp.Start(pipe); err != nil {
		panic(err)
	}
	dp.Close() // drains the backlog into the pipe
	pipe.Close()

	var order []byte
	buf := make([]byte, 1500)
	for {
		if _, err := pipe.ReadPacket(buf); err != nil {
			break
		}
		order = append(order, buf[0])
	}
	fmt.Println("classes in release order:", order)
	fmt.Println("backlog after Close:", dp.Backlog())
	// Output:
	// classes in release order: [0 1 0 0 0 1 1 1]
	// backlog after Close: 0
}

// Shaping paces real traffic on the wall clock with the engine that ships
// packets in cmd/hpfqgw: a WF²Q+ data plane writing into an in-memory
// datagram pipe. Unlike the other examples this one runs in real time, so
// it uses a small link and finishes in about a second.
//
// Class "bulk" floods 200 messages up front; "interactive" sends one
// message every 50 ms. A reader on the pipe timestamps each release.
// Despite the flood, every interactive message leaves within its own slot
// time plus one message in service — the WF²Q+ isolation guarantee working
// on the wall clock.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"hpfq"
)

const (
	linkRate    = 200_000 // bits/s
	bulkClass   = 0
	interClass  = 1
	msgBytes    = 125 // 1000 bits ⇒ 5 ms per message at the full link rate
	bulkCount   = 200
	interPeriod = 50 * time.Millisecond
	interCount  = 15
)

func main() {
	dp, err := hpfq.NewDataplane(hpfq.WF2QPlus, linkRate)
	check(err)
	check(dp.AddClass(bulkClass, 150_000)) // 75% guaranteed ⇒ 6.7 ms slots
	check(dp.AddClass(interClass, 50_000)) // 25% guaranteed ⇒ 20 ms slots
	pipe := hpfq.NewPacketPipe(bulkCount + interCount)
	check(dp.Start(pipe))

	// Each message carries its class and its send time since start.
	start := time.Now()
	send := func(class int) {
		b := make([]byte, msgBytes)
		b[0] = byte(class)
		binary.BigEndian.PutUint64(b[1:], uint64(time.Since(start)))
		check(dp.Ingest(class, b))
	}

	var (
		bulkDone   int
		bulkDrain  time.Duration
		interDone  int
		interWorst time.Duration
		read       = make(chan struct{})
	)
	go func() {
		defer close(read)
		buf := make([]byte, msgBytes)
		for {
			if _, err := pipe.ReadPacket(buf); err != nil {
				return
			}
			now := time.Since(start)
			switch buf[0] {
			case bulkClass:
				bulkDone++
				bulkDrain = now
			case interClass:
				interDone++
				interWorst = max(interWorst, now-time.Duration(binary.BigEndian.Uint64(buf[1:])))
			}
		}
	}()

	for i := 0; i < bulkCount; i++ {
		send(bulkClass)
	}
	for i := 0; i < interCount; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interPeriod)))
		send(interClass)
	}

	check(dp.Close()) // returns once the backlog has drained into the pipe
	pipe.Close()
	<-read

	fmt.Printf("bulk: %d/%d messages drained in %v\n", bulkDone, bulkCount, bulkDrain.Round(time.Millisecond))
	fmt.Printf("interactive: %d/%d messages, worst release latency %v\n",
		interDone, interCount, interWorst.Round(time.Millisecond))
	fmt.Println()
	fmt.Println("The bulk flood takes every slot the interactive class leaves idle;")
	fmt.Println("each interactive message leaves within its own 20 ms slot plus one")
	fmt.Println("5 ms message in service — not after the whole flood.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "shaping:", err)
		os.Exit(1)
	}
}

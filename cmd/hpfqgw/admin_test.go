package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"hpfq"
)

// TestGatewayAdminServer is the end-to-end admin smoke test: a loopback
// gateway with the control plane attached, introspected and reconfigured
// over real HTTP while traffic flows.
func TestGatewayAdminServer(t *testing.T) {
	dp, err := hpfq.NewShardedDataplane(hpfq.WF2QPlus, 5e7, 1, hpfq.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dp.AddClass(0, 4e7)
	dp.AddClass(1, 1e7)
	classify, err := newClassifier("byte0", dp.Classes())
	if err != nil {
		t.Fatal(err)
	}
	gw, recv, listen, runDone := testGateway(t, dp, gwConfig{}, classify)

	admin := hpfq.NewAdminServer(dp, hpfq.WithAdminFlows(gw.ft.snapshot))
	bound, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + bound.String()

	getBody := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: %d, want %d: %s", path, resp.StatusCode, wantCode, b)
		}
		return string(b)
	}

	if body := getBody("/healthz", 200); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %q", body)
	}
	var st hpfq.DataplaneStatus
	if err := json.Unmarshal([]byte(getBody("/api/status", 200)), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Started || st.Mode != "flat" || len(st.Classes) != 2 {
		t.Fatalf("status = %+v", st)
	}

	// Push traffic through so the flow table and counters are live.
	client := dialClient(t, listen)
	const n = 20
	for i := 0; i < n; i++ {
		b := make([]byte, 200)
		b[0] = byte(i % 2)
		if _, err := client.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(5 * time.Second))
	received := 0
	for ; received < n; received++ {
		if _, _, err := recv.ReadFromUDP(buf); err != nil {
			break
		}
	}
	if received < n*9/10 {
		t.Fatalf("received %d/%d", received, n)
	}

	// A live mutation over HTTP, observable in the engine.
	resp, err := http.PostForm(base+"/api/class/rate", url.Values{"id": {"0"}, "rate": {"2e7"}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"ok": true`) {
		t.Fatalf("rate mutation: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal([]byte(getBody("/api/status", 200)), &st); err != nil {
		t.Fatal(err)
	}
	if st.Classes[0].Rate != 2e7 {
		t.Fatalf("class 0 rate %g after HTTP retune, want 2e7", st.Classes[0].Rate)
	}

	// The human table and the flow listing see the same world.
	body := getBody("/status", 200)
	for _, want := range []string{"WF2Q+", "20Mbit/s", "CLASS", "flows: 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/status missing %q:\n%s", want, body)
		}
	}
	var flows []hpfq.FlowInfo
	if err := json.Unmarshal([]byte(getBody("/api/flows", 200)), &flows); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Client != client.LocalAddr().String() {
		t.Fatalf("flows = %+v, want the one test client", flows)
	}

	if err := gw.close(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil && !isClosedErr(err) {
		t.Fatal(err)
	}
}

func isClosedErr(err error) bool {
	if err == nil {
		return true
	}
	if ne, ok := err.(net.Error); ok && !ne.Timeout() {
		return strings.Contains(err.Error(), "closed")
	}
	return strings.Contains(fmt.Sprint(err), "closed")
}

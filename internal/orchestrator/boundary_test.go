package orchestrator

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postStatus POSTs req as JSON to url and returns the HTTP status.
func postStatus(t *testing.T, url string, req any) int {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestTargetedLeaseWaitsForPendingCampaign: with MaxActive 1 the second
// campaign queues as Pending. A lease aimed at it must answer Wait: a
// granted unit's heartbeats and result would be fenced, because only a
// Running or Draining campaign takes lease traffic.
func TestTargetedLeaseWaitsForPendingCampaign(t *testing.T) {
	spec1, spec2 := testSpec(), testSpec()
	spec2.Seed = 5
	m, ids := newTestManager(t, ManagerConfig{MaxActive: 1}, spec1, spec2)
	if got := m.CampaignState(ids[1]); got != StatePending {
		t.Fatalf("second campaign = %q, want pending", got)
	}
	if lr := m.Lease(LeaseRequest{Worker: "w", Campaign: ids[1]}); lr.Status != StatusWait || lr.PollMillis <= 0 {
		t.Fatalf("targeted lease on a pending campaign = %+v, want wait with a poll hint", lr)
	}

	// Finish the first campaign; the second starts running and the same
	// request now gets a unit whose heartbeat is live.
	for i := 0; ; i++ {
		lr := m.Lease(LeaseRequest{Worker: "w", Campaign: ids[0]})
		if lr.Status == StatusDone {
			break
		}
		if lr.Status != StatusLease || i > 10 {
			t.Fatalf("lease %d on the running campaign = %+v", i, lr)
		}
		if _, err := m.Result(ResultRequest{
			Worker: "w", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token,
			Stats: runUnit(t, lr.Spec, lr.Unit),
		}); err != nil {
			t.Fatal(err)
		}
	}
	lr := m.Lease(LeaseRequest{Worker: "w", Campaign: ids[1]})
	if lr.Status != StatusLease {
		t.Fatalf("targeted lease once running = %+v, want a lease", lr)
	}
	hb := m.Heartbeat(HeartbeatRequest{Worker: "w", Campaign: ids[1], UnitID: lr.Unit.ID, Token: lr.Token})
	if hb.Status != StatusOK {
		t.Fatalf("heartbeat = %q, want ok", hb.Status)
	}
}

// TestOversizedBodyRejected: a request body past maxBodyBytes is refused
// with 413 before it reaches the manager, the client does not retry it,
// and neither the sender's lease nor a neighbouring campaign is harmed.
func TestOversizedBodyRejected(t *testing.T) {
	spec1, spec2 := testSpec(), testSpec()
	spec2.Seed = 5
	m, ids := newTestManager(t, ManagerConfig{}, spec1, spec2)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	lr := m.Lease(LeaseRequest{Worker: "w1", Campaign: ids[0]})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %+v", lr)
	}
	huge := ResultRequest{
		Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token,
		Stats: make([]byte, maxBodyBytes),
	}
	if got := postStatus(t, srv.URL+PathResult, huge); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized result = %d, want 413", got)
	}
	if _, err := NewClient(srv.URL, "w1").Result(huge); err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("client result = %v, want a hard 413 error", err)
	}

	hb := m.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token})
	if hb.Status != StatusOK {
		t.Fatalf("heartbeat after the 413 = %q, want ok", hb.Status)
	}
	next, err := NewClient(srv.URL, "w2").Lease(LeaseRequest{Worker: "w2", Campaign: ids[1]})
	if err != nil || next.Status != StatusLease {
		t.Fatalf("neighbouring campaign lease = (%+v, %v), want a lease", next, err)
	}
}

// TestMalformedResultStatsKeepsLease: a result whose gob payload does not
// decode is the worker's bug, answered 400. The lease stays live, so the
// worker can still heartbeat and submit the real statistics.
func TestMalformedResultStatsKeepsLease(t *testing.T) {
	spec := testSpec()
	m, ids := newTestManager(t, ManagerConfig{}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	lr := m.Lease(LeaseRequest{Worker: "w1"})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %+v", lr)
	}
	bad := ResultRequest{
		Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token,
		Stats: []byte("\x07not a gob stream"),
	}
	if got := postStatus(t, srv.URL+PathResult, bad); got != http.StatusBadRequest {
		t.Fatalf("malformed gob result = %d, want 400", got)
	}
	hb := m.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token})
	if hb.Status != StatusOK {
		t.Fatalf("heartbeat after the 400 = %q, want ok (lease fenced?)", hb.Status)
	}
	good := bad
	good.Stats = runUnit(t, spec, lr.Unit)
	rr, err := NewClient(srv.URL, "w1").Result(good)
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("good result after the 400 = (%+v, %v), want accepted", rr, err)
	}
}

// TestHostileCoverageCountKeepsLease: a result whose statistics carry a
// coverage map with a pair count that wraps 16*n back to the data's
// length (2^60 more than the real count) does not decode, so it is
// answered 400 like any malformed payload: three such reports leave the
// lease live, the campaign running with no strike, and the real result
// accepted. Without the count bound in coverage.Map.UnmarshalBinary the
// decode indexed past the buffer, each report was a recovered panic
// answered 500, and the third failed the campaign.
func TestHostileCoverageCountKeepsLease(t *testing.T) {
	spec := testSpec()
	m, ids := newTestManager(t, ManagerConfig{}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	lr := m.Lease(LeaseRequest{Worker: "w1"})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %+v", lr)
	}
	good := runUnit(t, spec, lr.Unit)
	st, err := DecodeStats(good)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.Coverage.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(good, blob)
	if at < 0 || len(blob) < 24 {
		t.Fatalf("coverage blob (%d bytes) not found verbatim in the %d-byte payload", len(blob), len(good))
	}
	hostile := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(hostile[at:], binary.LittleEndian.Uint64(blob)+1<<60)
	if _, err := DecodeStats(hostile); err == nil {
		t.Fatal("DecodeStats accepted a wrapped coverage count")
	}

	req := ResultRequest{Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token, Stats: hostile}
	for i := 0; i < maxStrikes; i++ {
		if got := postStatus(t, srv.URL+PathResult, req); got != http.StatusBadRequest {
			t.Fatalf("hostile result %d = %d, want 400", i+1, got)
		}
	}
	hb := m.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token})
	if hb.Status != StatusOK {
		t.Fatalf("heartbeat after the 400s = %q, want ok (lease fenced?)", hb.Status)
	}
	m.mu.Lock()
	strikes := m.campaigns[ids[0]].strikes
	m.mu.Unlock()
	if strikes != 0 {
		t.Fatalf("campaign has %d strikes, want 0", strikes)
	}
	if got := m.CampaignState(ids[0]); got != StateRunning {
		t.Fatalf("campaign state = %q, want %q", got, StateRunning)
	}
	req.Stats = good
	rr, err := NewClient(srv.URL, "w1").Result(req)
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("good result after the 400s = (%+v, %v), want accepted", rr, err)
	}
}

// TestSlowClientsDisconnected: NewHTTPServer cuts off a client that
// stalls mid-header and one that stalls mid-body, and while both hold
// their connections a neighbouring campaign's lease and result go
// through. The timeouts are shortened on the returned server so the test
// takes seconds, not minutes.
func TestSlowClientsDisconnected(t *testing.T) {
	spec1, spec2 := testSpec(), testSpec()
	spec2.Seed = 5
	m, ids := newTestManager(t, ManagerConfig{}, spec1, spec2)
	srv := NewHTTPServer(m)
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != time.Minute || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeouts header %v, read %v, idle %v; want 10s, 1m, 2m",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = time.Second
	srv.ReadTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	stall := func(partial string) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := io.WriteString(c, partial); err != nil {
			t.Fatal(err)
		}
		return c
	}
	lr := m.Lease(LeaseRequest{Worker: "w1", Campaign: ids[0]})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %+v", lr)
	}
	start := time.Now()
	header := stall("POST " + PathLease + " HTTP/1.1\r\nHost: bvfd\r\nContent-Type: application/json\r\n")
	body := stall(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bvfd\r\nContent-Type: application/json\r\n"+
		"Content-Length: 4096\r\n\r\n{\"worker\":\"w1\",\"campaign\":%q,\"unit_id\":%d,", PathResult, ids[0], lr.Unit.ID))

	cl := NewClient("http://"+ln.Addr().String(), "w2")
	next, err := cl.Lease(LeaseRequest{Worker: "w2", Campaign: ids[1]})
	if err != nil || next.Status != StatusLease {
		t.Fatalf("neighbouring campaign lease = (%+v, %v), want a lease", next, err)
	}
	rr, err := cl.Result(ResultRequest{
		Worker: "w2", Campaign: ids[1], UnitID: next.Unit.ID, Token: next.Token,
		Stats: runUnit(t, next.Spec, next.Unit),
	})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("neighbouring campaign result = (%+v, %v), want accepted", rr, err)
	}
	if d := time.Since(start); d >= srv.ReadHeaderTimeout {
		t.Errorf("the neighbour's lease and result took %v, past the stalled clients' %v header timeout", d, srv.ReadHeaderTimeout)
	}

	for _, c := range []struct {
		name  string
		conn  net.Conn
		limit time.Duration
	}{{"mid-header", header, srv.ReadHeaderTimeout}, {"mid-body", body, srv.ReadTimeout}} {
		c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := io.ReadAll(c.conn)
		if err != nil {
			t.Errorf("%s client still connected after %v: %v", c.name, time.Since(start), err)
			continue
		}
		if d := time.Since(start); d < c.limit {
			t.Errorf("%s client cut off after %v, before its %v timeout", c.name, d, c.limit)
		}
		if strings.Contains(string(resp), "200 OK") {
			t.Errorf("%s client got a success response: %q", c.name, resp)
		}
	}
}

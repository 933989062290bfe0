package orchestrator

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

package orchestrator

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultinject"
)

// Paths of the control-plane endpoints.
const (
	PathRegister  = "/v1/register"
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathStatus    = "/v1/status"
	PathSubmit    = "/v1/campaigns/submit"
	PathList      = "/v1/campaigns/list"
	PathStop      = "/v1/campaigns/stop"
	PathDrain     = "/v1/drain"
)

// NewServer wraps a campaign manager in the HTTP+JSON control plane.
// Every handler passes the "orch.server" fault point first, so tests can
// make the coordinator drop requests (500) deterministically and prove
// the client-side retry path.
//
// Admission errors map onto HTTP statuses the client understands:
//
//	401 bad token            hard — a new token is needed, not a retry
//	429 quota / overload     transient — Retry-After carries the backoff
//	                         hint the client's jittered schedule honors
//	503 draining             transient — this process is going away; the
//	                         bounded retry fails fast
//	413 body over 4 MiB      hard — maxBodyBytes
//	400 anything else        hard — bad spec, unknown campaign, ...
//
// The lease and submit paths sit behind an in-flight cap
// (ManagerConfig.MaxInflight): past it, the coordinator sheds load with
// 429 + Retry-After instead of queueing unboundedly. Heartbeats and
// results are never shed — dropping them would expire live leases and
// turn an overload blip into wasted re-execution.
func NewServer(m *Manager) http.Handler {
	shed := newShedder(m.MaxInflight())
	retryAfter := m.RetryAfterHint()
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req RegisterRequest) (RegisterResponse, error) {
			return m.Register(req), nil
		})
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req LeaseRequest) (LeaseResponse, error) {
			if !shed.acquire() {
				return LeaseResponse{}, ErrOverloaded
			}
			defer shed.release()
			return m.Lease(req), nil
		})
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req HeartbeatRequest) (HeartbeatResponse, error) {
			return m.Heartbeat(req), nil
		})
	})
	mux.HandleFunc(PathResult, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Result)
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Status)
	})
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req SubmitRequest) (SubmitResponse, error) {
			if !shed.acquire() {
				return SubmitResponse{}, ErrOverloaded
			}
			defer shed.release()
			return m.Submit(req)
		})
	})
	mux.HandleFunc(PathList, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.List)
	})
	mux.HandleFunc(PathStop, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Stop)
	})
	mux.HandleFunc(PathDrain, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req DrainRequest) (DrainResponse, error) {
			if _, err := m.cfg.Auth.Authorize(req.Token); err != nil {
				return DrainResponse{}, err
			}
			return DrainResponse{Campaigns: m.Drain()}, nil
		})
	})
	return mux
}

// shedder is the concurrent-request cap behind the shed-load paths. A
// nil shedder (cap 0) admits everything.
type shedder struct{ slots chan struct{} }

func newShedder(max int) *shedder {
	if max <= 0 {
		return nil
	}
	return &shedder{slots: make(chan struct{}, max)}
}

func (s *shedder) acquire() bool {
	if s == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *shedder) release() {
	if s != nil {
		<-s.slots
	}
}

// maxBodyBytes bounds a request body. Result bodies, the largest, measure
// 18–25 KB for units of 3k to 200k iterations.
const maxBodyBytes = 4 << 20

// handle decodes a JSON request body of at most maxBodyBytes, runs fn,
// and encodes the response. Handler errors map to HTTP statuses via
// httpStatusFor; 429s carry the manager's Retry-After hint.
func handle[Req, Resp any](w http.ResponseWriter, r *http.Request, retryAfter time.Duration, fn func(Req) (Resp, error)) {
	if err := faultinject.FireErr("orch.server"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req Req
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return
	}
	resp, err := fn(req)
	if err != nil {
		status := httpStatusFor(err)
		if status == http.StatusTooManyRequests {
			secs := int(retryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, resp)
}

// httpStatusFor maps admission errors onto the statuses documented on
// NewServer. Everything unrecognized is a 400: a caller mistake, not
// transient server state, so clients must not retry it.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrCampaignFault):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

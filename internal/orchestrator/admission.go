package orchestrator

import (
	"crypto/subtle"
	"errors"
	"fmt"
)

// Admission control errors. The server maps them onto HTTP statuses:
// ErrUnauthorized → 401 (hard — retrying a bad token cannot succeed),
// ErrQuotaExceeded and ErrOverloaded → 429 with a Retry-After hint the
// client's backoff honors (both clear on their own: campaigns finish,
// load subsides), ErrDraining → 503 (this process is going away; a
// bounded retry fails fast and the caller resubmits elsewhere).
var (
	ErrUnauthorized  = errors.New("orchestrator: unauthorized")
	ErrQuotaExceeded = errors.New("orchestrator: client quota exceeded")
	ErrOverloaded    = errors.New("orchestrator: coordinator overloaded")
	ErrDraining      = errors.New("orchestrator: coordinator draining")
	// ErrCampaignFault reports a recovered panic in one campaign's
	// machinery. It maps to a 500 — transient from the caller's view: a
	// one-off panic is consumed by the campaign's strike counter, and a
	// retried call either succeeds or finds the campaign Failed (fenced).
	ErrCampaignFault = errors.New("orchestrator: campaign machinery fault")
)

// ClientQuota names one authenticated client and bounds what it may ask
// of the service.
type ClientQuota struct {
	// Token is the bearer secret presented on submissions.
	Token string
	// Name identifies the client in campaign ownership records.
	Name string
	// MaxCampaigns bounds the client's concurrent non-terminal
	// campaigns; 0 means unlimited.
	MaxCampaigns int
	// MaxIters caps a single campaign's iteration budget; 0 means
	// unlimited. Exceeding it is a hard rejection, not a 429 — waiting
	// cannot make an oversized campaign fit.
	MaxIters int
}

// AuthTable authenticates submission tokens. A nil *AuthTable means
// open access: every caller is the anonymous client with no limits.
type AuthTable struct {
	clients []ClientQuota
}

// NewAuthTable builds the table from the quota list. Duplicate tokens are
// an error — silently letting the last one win would swap a client's
// limits out from under it.
func NewAuthTable(quotas []ClientQuota) (*AuthTable, error) {
	t := &AuthTable{}
	seen := make(map[string]bool, len(quotas))
	for _, q := range quotas {
		if q.Token == "" {
			return nil, fmt.Errorf("orchestrator: client %q has an empty token", q.Name)
		}
		if seen[q.Token] {
			return nil, fmt.Errorf("orchestrator: duplicate auth token for client %q", q.Name)
		}
		seen[q.Token] = true
		if q.Name == "" {
			q.Name = "client-" + abbreviate(q.Token)
		}
		t.clients = append(t.clients, q)
	}
	return t, nil
}

// abbreviate keeps token prefixes out of logs while still telling two
// unnamed clients apart.
func abbreviate(tok string) string {
	if len(tok) > 4 {
		return tok[:4]
	}
	return tok
}

// Authorize resolves a token to its client quota. On a nil table every
// token (including none) is the unlimited anonymous client. Every
// client's token is compared in constant time, so how long the answer
// takes does not tell a caller how much of a token it guessed right.
func (t *AuthTable) Authorize(token string) (ClientQuota, error) {
	if t == nil {
		return ClientQuota{Name: "anonymous"}, nil
	}
	match := -1
	for i, q := range t.clients {
		if subtle.ConstantTimeCompare([]byte(q.Token), []byte(token)) == 1 {
			match = i
		}
	}
	if match < 0 {
		return ClientQuota{}, ErrUnauthorized
	}
	return t.clients[match], nil
}

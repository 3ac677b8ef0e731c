package cluster

// The forwarding client: bounded retries with backoff across the ring
// replicas of a key, plus hedging — when the primary has not answered
// within HedgeAfter, a second attempt launches against the next replica
// and the first acceptable response wins while every other in-flight
// attempt is canceled. Transport-level failures mark the peer down (the
// prober owns recovery) and fail over to the next candidate immediately;
// overload and gateway statuses (429/502/503) fail over without marking
// down, because the peer is alive and merely shedding. Every other
// status is the peer's real answer and is relayed as-is.
//
// The caller's context bounds the whole operation, so a forwarded
// request spends at most the original request's remaining deadline
// budget across all attempts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"assignmentmotion/internal/fault"
)

// ForwardedHeader marks a request as already forwarded once. A node that
// receives it always computes locally — forwards never chain, so a
// misconfigured or split-brain ring cannot loop a request.
const ForwardedHeader = "X-Amoptd-Forwarded"

// maxForwardBody bounds a relayed peer response (matches the server's
// own request cap order of magnitude).
const maxForwardBody = 64 << 20

// ForwardResult is the winning peer response of a Forward call.
type ForwardResult struct {
	Peer        string // peer that answered
	Status      int    // its HTTP status (never a retryable one)
	ContentType string
	Body        []byte
	Hedged      bool // true when a hedged attempt won
}

// forwardAttempt is one (peer, retry-cycle) slot in the attempt plan.
type forwardAttempt struct {
	peer  string
	cycle int
	hedge bool
}

// attemptOutcome is what one in-flight attempt reports back.
type attemptOutcome struct {
	att forwardAttempt
	res *ForwardResult
	err error
}

// retryableStatus reports whether a peer status means "try the next
// replica": the peer is alive but shedding (429) or itself failed to
// reach its own dependency (502/503, which includes drain).
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// Forward POSTs body to the candidate peers in preference order and
// returns the first acceptable response. peers is typically
// Route(key).Peers. On exhaustion — every attempt hit the wire and died,
// or every peer shed — it returns a *fault.PeerError that maps to 503
// peer-unavailable. A non-retryable peer status (including 4xx/5xx) is
// NOT an error here: it is the owner's real answer, relayed verbatim.
func (n *Node) Forward(ctx context.Context, peers []string, path string, body []byte) (*ForwardResult, error) {
	if len(peers) == 0 {
		return nil, &fault.PeerError{Attempts: 0, Unreachable: true, Err: errors.New("no candidate peers")}
	}

	// The attempt plan: every candidate once per cycle, 1 + retries()
	// cycles. Hedges and failures both just advance through the plan.
	var plan []forwardAttempt
	for c := 0; c <= n.cfg.retries(); c++ {
		for _, p := range peers {
			plan = append(plan, forwardAttempt{peer: p, cycle: c})
		}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels every losing in-flight attempt

	results := make(chan attemptOutcome, len(plan))
	next := 0 // index into plan of the next attempt to launch
	inflight := 0
	launched := 0
	var lastPeer string
	var lastErr error

	launch := func(hedge bool) {
		att := plan[next]
		att.hedge = hedge
		next++
		inflight++
		launched++
		lastPeer = att.peer
		n.met.forward(att.peer)
		if att.cycle > 0 {
			n.met.retries.Add(1)
		}
		if hedge {
			n.met.hedges.Add(1)
		}
		go func() {
			res, err := n.post(actx, att.peer, path, body)
			select {
			case results <- attemptOutcome{att: att, res: res, err: err}:
			case <-actx.Done():
			}
		}()
	}

	launch(false)

	// One timer drives both hedging and retry backoff: after each event
	// we decide when (and why) the next attempt should start.
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	arm := func(d time.Duration) {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}

	pendingRetry := false // next launch is a failure-driven retry, not a hedge
	hedgeEnabled := n.cfg.hedgeAfter() > 0
	if hedgeEnabled && next < len(plan) {
		arm(n.cfg.hedgeAfter())
	}

	// backoffFor returns the pre-launch delay when the plan crosses into
	// retry cycle c (exponential in c, jittered).
	backoffFor := func(c int) time.Duration {
		if c <= 0 {
			return 0
		}
		d := n.cfg.retryBackoff() << (c - 1)
		return n.health.jitter(d)
	}

	for {
		select {
		case <-ctx.Done():
			return nil, &fault.PeerError{Peer: lastPeer, Attempts: launched, Unreachable: true, Err: ctx.Err()}

		case <-timer.C:
			if next >= len(plan) {
				break
			}
			launch(!pendingRetry)
			pendingRetry = false
			if hedgeEnabled && next < len(plan) {
				arm(n.cfg.hedgeAfter())
			}

		case out := <-results:
			inflight--
			if out.err == nil && !retryableStatus(out.res.Status) {
				if out.att.hedge {
					n.met.hedgeWins.Add(1)
					out.res.Hedged = true
				}
				return out.res, nil
			}
			// Retryable: transport death or a shedding status.
			if out.err != nil {
				lastErr = out.err
				n.met.forwardFailure(out.att.peer)
				n.health.markDown(out.att.peer)
			} else {
				lastErr = fmt.Errorf("peer %s answered %d", out.att.peer, out.res.Status)
			}
			if next < len(plan) {
				// Fail over. Crossing into a new cycle waits out the retry
				// backoff first; within a cycle the next replica starts now.
				if plan[next].cycle > plan[next-1].cycle {
					pendingRetry = true
					arm(backoffFor(plan[next].cycle))
				} else {
					launch(false)
					if hedgeEnabled && next < len(plan) {
						arm(n.cfg.hedgeAfter())
					}
				}
			} else if inflight == 0 {
				return nil, &fault.PeerError{Peer: lastPeer, Attempts: launched, Unreachable: true, Err: lastErr}
			}
		}
	}
}

// post runs one forwarded POST against one peer.
func (n *Node) post(ctx context.Context, peer, path string, body []byte) (*ForwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		return nil, err
	}
	return &ForwardResult{
		Peer:        peer,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        data,
	}, nil
}

// Package fault defines the typed failure taxonomy of the optimizer.
//
// The paper's algorithm is an exhaustive fixpoint (§4: rae/aht iterated
// until stabilization), and an implementation of it can fail in a small,
// enumerable set of ways: the fixpoint overruns its termination backstop,
// a pass panics, a pass produces a structurally invalid graph, a caller
// imposed resource budget is exhausted, or the caller cancels the run.
// Each of these is a distinct, matchable error here, so the pipeline, the
// batch engine, and the amopt command can react per kind — retry, roll
// back, skip, or map to an exit code — instead of collapsing everything
// into one recovered panic per graph.
//
// Matching is by errors.Is against the Err* sentinels (every concrete
// error type Is its sentinel) or by errors.As against the concrete types
// when the detail matters. Failures raised inside a pipeline are wrapped
// in a *PassError carrying the offending pass's registry name and
// pipeline index; Unwrap reaches the cause, so sentinel matching works
// through the wrapper.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// The failure kinds, as errors.Is targets.
var (
	// ErrNoFixpoint: an exhaustive fixpoint overran its iteration-limit
	// backstop — a termination bug or a pathological input.
	ErrNoFixpoint = errors.New("no fixpoint within the iteration limit")
	// ErrInvalidGraph: a pass left the graph structurally invalid
	// (ir.Graph.Validate failed).
	ErrInvalidGraph = errors.New("pass produced an invalid graph")
	// ErrPassPanic: a pass panicked and the pipeline recovered it.
	ErrPassPanic = errors.New("pass panicked")
	// ErrBudgetExceeded: a caller-imposed resource budget (wall time,
	// solver visits, AM iterations) was exhausted.
	ErrBudgetExceeded = errors.New("optimization budget exceeded")
	// ErrCanceled: the caller's context was canceled or timed out
	// between or during passes.
	ErrCanceled = errors.New("optimization canceled")
	// ErrPeerUnavailable: a clustered daemon could not reach any replica
	// of the shard owning a forwarded request — every candidate peer was
	// down, shedding, or draining. Retrying later may succeed.
	ErrPeerUnavailable = errors.New("no cluster peer available")
	// ErrPeerFailure: a cluster peer answered a forwarded request with a
	// response the forwarder could not use (undecodable body, protocol
	// violation). The peer is up but misbehaving.
	ErrPeerFailure = errors.New("cluster peer returned an unusable response")
)

// PassError decorates a failure with the pipeline position that raised
// it: the pass's registry name and its index in the pass sequence.
// Unwrap exposes the cause, so errors.Is(err, fault.ErrNoFixpoint) and
// friends match through it.
type PassError struct {
	// Pass is the registry name of the offending pass.
	Pass string
	// Index is the pass's position in the pipeline.
	Index int
	// Err is the underlying failure (one of this package's typed errors).
	Err error
}

func (e *PassError) Error() string {
	return fmt.Sprintf("pass %q (pipeline step %d): %v", e.Pass, e.Index, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// In wraps err with the pass name and pipeline index that raised it. An
// err that already carries its position (a *PassError, e.g. from a nested
// pipeline) is returned unchanged — the innermost position is the
// actionable one. A nil err maps to nil.
func In(pass string, index int, err error) error {
	if err == nil {
		return nil
	}
	var pe *PassError
	if errors.As(err, &pe) {
		return err
	}
	return &PassError{Pass: pass, Index: index, Err: err}
}

// IsCancellation reports whether err is (or wraps) a cancellation — the
// one failure kind a recovery policy never absorbs, because it is the
// caller's own request to stop.
func IsCancellation(err error) bool { return errors.Is(err, ErrCanceled) }

// PassOf extracts the pass name and pipeline index from an error raised
// inside a pipeline. ok is false when err carries no position.
func PassOf(err error) (pass string, index int, ok bool) {
	var pe *PassError
	if errors.As(err, &pe) {
		return pe.Pass, pe.Index, true
	}
	return "", 0, false
}

// NoFixpointError reports that an exhaustive fixpoint procedure failed to
// stabilize within its iteration-limit backstop.
type NoFixpointError struct {
	// Proc names the fixpoint procedure ("am", "am-restricted", ...).
	Proc string
	// Iterations is the number of rounds executed; Limit the backstop it
	// overran. The limit is quadratic in program size (§4.5 bounds the
	// number of procedure applications), so hitting it means a
	// termination bug, not a slow input.
	Iterations int
	Limit      int
}

func (e *NoFixpointError) Error() string {
	return fmt.Sprintf("%s: no fixpoint after %d iterations (limit %d; termination bug)",
		e.Proc, e.Iterations, e.Limit)
}

func (e *NoFixpointError) Is(target error) bool { return target == ErrNoFixpoint }

// PanicError is a recovered pass panic, carrying the recovered value and
// the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("optimization panicked: %v", e.Value) }

func (e *PanicError) Is(target error) bool { return target == ErrPassPanic }

// InvalidGraphError reports that a pass left the graph structurally
// invalid, wrapping the ir.Graph.Validate detail.
type InvalidGraphError struct {
	Err error
}

func (e *InvalidGraphError) Error() string { return fmt.Sprintf("invalid graph: %v", e.Err) }

func (e *InvalidGraphError) Unwrap() error { return e.Err }

func (e *InvalidGraphError) Is(target error) bool { return target == ErrInvalidGraph }

// BudgetError reports an exhausted optimization budget.
type BudgetError struct {
	// Resource names the exhausted dimension: "pass wall time", "solver
	// visits", or "am iterations".
	Resource string
	// Used and Limit quantify the exhaustion in the resource's own unit
	// (nanoseconds for wall time).
	Used  int64
	Limit int64
}

func (e *BudgetError) Error() string {
	if e.Resource == "pass wall time" {
		return fmt.Sprintf("budget exceeded: %s %v > %v",
			e.Resource, time.Duration(e.Used), time.Duration(e.Limit))
	}
	return fmt.Sprintf("budget exceeded: %s %d > %d", e.Resource, e.Used, e.Limit)
}

func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// CanceledError reports that the run's context was canceled or its
// deadline expired. Unwrap exposes the context error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) keep working alongside ErrCanceled.
type CanceledError struct {
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string { return fmt.Sprintf("optimization canceled: %v", e.Err) }

func (e *CanceledError) Unwrap() error { return e.Err }

func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// PeerError reports that forwarding a request to the cluster peers
// responsible for its shard did not produce a usable response. It is
// raised by the forwarding layer (internal/cluster), never by a pass, so
// it carries no pipeline position.
type PeerError struct {
	// Peer is the last peer tried ("" when no peer was reachable at all).
	Peer string
	// Attempts counts the forward attempts made (including retries and
	// hedges) before giving up.
	Attempts int
	// Unreachable distinguishes the two failure modes: true means no
	// replica produced any response (down/shedding/draining — maps to
	// 503), false means a peer answered but the response was unusable
	// (maps to 502).
	Unreachable bool
	// Err is the underlying transport or decode failure, when one exists.
	Err error
}

func (e *PeerError) Error() string {
	kind := "unusable response from"
	if e.Unreachable {
		kind = "no usable response from"
	}
	msg := fmt.Sprintf("cluster: %s %d forward attempt(s)", kind, e.Attempts)
	if e.Peer != "" {
		msg += " (last peer " + e.Peer + ")"
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *PeerError) Unwrap() error { return e.Err }

func (e *PeerError) Is(target error) bool {
	if e.Unreachable {
		return target == ErrPeerUnavailable
	}
	return target == ErrPeerFailure
}

// Budget caps the resources one pipeline run may consume. The zero value
// imposes no caps. Budgets turn runaway work into typed ErrBudgetExceeded
// failures at the next pass boundary or fixpoint round instead of hangs:
// every fixpoint pass checks the budget once per round
// (analysis.Session.CheckBudget), and the pipeline checks it around every
// pass.
type Budget struct {
	// MaxPassWall caps the wall-clock time of a single pass. Fixpoint
	// passes check it between rounds; the pipeline additionally checks it
	// after every pass, so even a single-sweep pass that overruns is
	// reported (after the fact).
	MaxPassWall time.Duration
	// MaxSolverVisits caps the dataflow-solver node visits of a single
	// pass, measured through the session's SolveStats tally.
	MaxSolverVisits int
	// MaxAMIterations caps the rounds of one assignment-motion fixpoint
	// (am, am-restricted, em) and of the emcp, gvn-emcp and pde loops —
	// the §7 mitigation for time-critical compilation. A capped run stops
	// with ErrBudgetExceeded and leaves the graph at its last completed
	// round.
	MaxAMIterations int
}

// Zero reports whether b imposes no caps.
func (b Budget) Zero() bool {
	return b.MaxPassWall == 0 && b.MaxSolverVisits == 0 && b.MaxAMIterations == 0
}

package server

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// This file implements the session lifecycle for fault-tolerant clients
// (PROTOCOL.md "Sessions"). A client that wants reconnect/resume
// semantics enrolls with Hello instead of Register. The engine mints a
// resume token and marks the client reliable: alarm firings are retained
// until acknowledged and duplicate position updates are tolerated (and
// counted). On reconnect the client presents its token; if the engine
// still holds matching state, the session resumes — the registration,
// safe-region bookkeeping and unacknowledged firings all survive, so the
// client re-installs its monitoring state from one push instead of
// replaying history. The table lives in the engine, not the transport,
// so it also survives a TCP listener restart.

// HandleHello establishes or resumes a reliable session. It returns the
// messages to send back — a Resume always, then (on resume) any
// unacknowledged alarm firings and a fresh monitoring push when the
// client already has a position — and whether the session resumed.
func (e *Engine) HandleHello(m wire.Hello) ([]wire.Message, bool, error) {
	switch m.Strategy {
	case wire.StrategyPeriodic, wire.StrategySafePeriod, wire.StrategyMWPSR,
		wire.StrategyPBSR, wire.StrategyOptimal:
	default:
		return nil, false, fmt.Errorf("server: unknown strategy %d", m.Strategy)
	}
	user := alarm.UserID(m.User)

	e.sessMu.Lock()
	owner, known := e.sessions[m.Token]
	e.sessMu.Unlock()

	if m.Token != 0 && known && owner == user {
		if out, ok := e.tryResume(user, m); ok {
			e.met.SessionsResumed.Add(1)
			return out, true, nil
		}
	}

	// Fresh session: mint a token and replace any prior state. If the
	// client had a reliable session before (its token was lost with the
	// Resume frame, or expired), the unacknowledged firings carry over:
	// re-enrollment must not silently discard deliveries the client never
	// saw.
	token := e.mintToken(user)

	var carried []uint64
	sh := e.shardFor(user)
	sh.mu.Lock()
	if old := sh.m[user]; old != nil {
		old.mu.Lock()
		if old.reliable && len(old.pendingFired) > 0 {
			carried = append([]uint64(nil), old.pendingFired...)
		}
		old.mu.Unlock()
	}
	sh.m[user] = &clientState{
		strategy:     m.Strategy,
		maxHeight:    int(m.MaxHeight),
		reliable:     true,
		pendingFired: carried,
		lastActive:   e.now(),
	}
	sh.mu.Unlock()
	e.met.SessionsOpened.Add(1)

	// Write-ahead: the minted token must survive a crash, or the client's
	// Resume would be refused and its unacked firings stranded. Logged
	// outside every engine lock, before the Resume frame is released.
	if err := e.logRecord(store.HelloRec{
		User: m.User, Token: token, Strategy: m.Strategy, MaxHeight: m.MaxHeight,
	}); err != nil {
		return nil, false, err
	}

	var out []wire.Message
	out = e.send(out, wire.Resume{Token: token, Resumed: false})
	if len(carried) > 0 {
		e.met.FiredRedeliveries.Add(uint64(len(carried)))
		out = e.send(out, wire.AlarmFired{Seq: 0, Alarms: append([]uint64(nil), carried...)})
	}
	return out, false, nil
}

// mintToken mints the user's next resume token.
func (e *Engine) mintToken(user alarm.UserID) uint64 {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	e.lastToken++
	e.addTokenLocked(e.lastToken, user)
	return e.lastToken
}

// addTokenLocked enters token into the session table and the user's
// reverse index. The caller holds sessMu.
func (e *Engine) addTokenLocked(token uint64, user alarm.UserID) {
	e.sessions[token] = user
	e.userTokens[user] = append(e.userTokens[user], token)
}

// dropClient removes the user's client state and every resume token
// minted for it — what an ExpireRec replays to — and reports whether
// there was client state to remove.
func (e *Engine) dropClient(user alarm.UserID) bool {
	sh := e.shardFor(user)
	sh.mu.Lock()
	_, ok := sh.m[user]
	delete(sh.m, user)
	sh.mu.Unlock()
	e.sessMu.Lock()
	for _, tok := range e.userTokens[user] {
		delete(e.sessions, tok)
	}
	delete(e.userTokens, user)
	e.sessMu.Unlock()
	return ok
}

// tryResume resumes the session iff the retained state matches what the
// client re-declares; a mismatch (strategy or capability changed across
// the reconnect) falls back to a fresh session.
func (e *Engine) tryResume(user alarm.UserID, m wire.Hello) ([]wire.Message, bool) {
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st == nil {
		return nil, false
	}
	reg := e.reg.Load()

	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.reliable || st.strategy != m.Strategy || st.maxHeight != int(m.MaxHeight) {
		return nil, false
	}
	st.lastActive = e.now()
	var out []wire.Message
	out = e.send(out, wire.Resume{Token: m.Token, Resumed: true})
	if len(st.pendingFired) > 0 {
		e.met.FiredRedeliveries.Add(uint64(len(st.pendingFired)))
		fired := append([]uint64(nil), st.pendingFired...)
		out = e.send(out, wire.AlarmFired{Seq: 0, Alarms: fired})
	}
	// Re-install monitoring state so the client stops degrading on its
	// stale region. Seq 0 marks a server-initiated push.
	sc := e.getScratch()
	msgs := e.invalidationFor(reg, user, st, sc)
	e.putScratch(sc)
	for _, m := range msgs {
		out = e.send(out, m)
	}
	return out, true
}

// AckFired clears acknowledged alarm firings from the user's pending set
// and logs the acknowledgement durably (so a recovered server does not
// redeliver firings the client already confirmed). A new slice is built
// rather than filtering in place: the previous pending slice may still
// back an in-flight AlarmFired message.
func (e *Engine) AckFired(user alarm.UserID, ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st == nil {
		return nil
	}
	acked := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		acked[id] = true
	}
	st.mu.Lock()
	var keep []uint64
	for _, id := range st.pendingFired {
		if !acked[id] {
			keep = append(keep, id)
		}
	}
	st.pendingFired = keep
	reliable := st.reliable
	if reliable {
		st.lastActive = e.now()
	}
	st.mu.Unlock()
	if !reliable {
		return nil
	}
	return e.logRecord(store.FiredAckRec{User: uint64(user), Alarms: ids})
}

// touchSession refreshes the idle clock of a reliable session.
func (e *Engine) touchSession(user alarm.UserID) {
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.reliable {
		st.lastActive = e.now()
	}
	st.mu.Unlock()
}

// PendingFired returns the user's unacknowledged alarm firings (a copy).
// The transport layer piggybacks them on heartbeat replies so a firing
// whose AlarmFired frame was lost still reaches the client even when its
// safe region keeps it silent.
func (e *Engine) PendingFired(user alarm.UserID) []uint64 {
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pendingFired) == 0 {
		return nil
	}
	return append([]uint64(nil), st.pendingFired...)
}

// HandleHeartbeat counts a heartbeat and returns the echo plus any
// pending firing redelivery for the user (zero user or unknown user gets
// just the echo).
func (e *Engine) HandleHeartbeat(user alarm.UserID, hb wire.Heartbeat) []wire.Message {
	e.met.Heartbeats.Add(1)
	e.touchSession(user)
	var out []wire.Message
	out = e.send(out, hb)
	if pending := e.PendingFired(user); len(pending) > 0 {
		e.met.FiredRedeliveries.Add(uint64(len(pending)))
		out = e.send(out, wire.AlarmFired{Seq: 0, Alarms: pending})
	}
	return out
}

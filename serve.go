package spocus

// The serving layer: a concurrent, durable runtime hosting many live
// transducer sessions — one per customer — behind an HTTP/JSON API. See
// internal/session for the engine and cmd/spocus-server for the binary.
// The cluster layer (internal/cluster, cmd/spocus-router) lifts the
// session shard boundary across processes: a consistent-hash router
// fronting N servers, with health-based failover and session handoff by
// shipping the state image under a log digest.
// Durability itself — segmented group-commit WALs and streaming snapshots —
// lives in internal/storage, owned end-to-end by the session engine. The live verification plane (internal/live) answers
// reachability, temporal, and progress queries against running sessions'
// current prefixes, with memoized answers and admission control.

import (
	"net/http"

	"repro/internal/cluster"
	"repro/internal/compose"
	"repro/internal/live"
	"repro/internal/models"
	"repro/internal/session"
)

// Re-exported session-engine types.
type (
	// Engine hosts many concurrent transducer sessions, sharded by session
	// ID, with write-ahead logging and snapshots under Config.Dir.
	Engine = session.Engine
	// EngineConfig tunes an Engine (durability dir, shards, fsync policy,
	// snapshot cadence).
	EngineConfig = session.Config
	// OpenRequest describes a session to open: a named model or an inline
	// program, an optional database, and an acceptance mode.
	OpenRequest = session.OpenRequest
	// SessionInfo describes an open session.
	SessionInfo = session.Info
	// StepResult is one transition's outputs and log delta (Figure 1).
	StepResult = session.StepResult
	// LogResult is a session's full durable log.
	LogResult = session.LogResult
	// CloseResult is a closed session's final disposition.
	CloseResult = session.CloseResult
	// EngineStats is a point-in-time metrics snapshot.
	EngineStats = session.Stats
	// FsyncPolicy selects WAL durability (always, interval, never).
	FsyncPolicy = session.FsyncPolicy
	// NetworkSpec describes a transducer network (members and wires) for a
	// network session: set OpenRequest.Network to open one. Each POST /input
	// then advances every member one synchronous unit-delay step, atomically
	// and durably (one WAL record per joint step).
	NetworkSpec = compose.Spec
	// JointLogEntry is one step of a network session's durable joint log:
	// every member's log delta plus the consumed wire traffic.
	JointLogEntry = session.JointLogEntry
)

// WAL fsync policies.
const (
	// FsyncAlways makes every acknowledged step durable before replying.
	FsyncAlways = session.FsyncAlways
	// FsyncInterval flushes at most once per configured interval.
	FsyncInterval = session.FsyncInterval
	// FsyncNever leaves flushing to the operating system.
	FsyncNever = session.FsyncNever
)

// Re-exported cluster-layer types.
type (
	// Router fronts N engine servers with a consistent-hash ring, health
	// checking, and session handoff (state image + log digest).
	Router = cluster.Router
	// RouterConfig tunes a Router (backends, health probing, follower reads).
	RouterConfig = cluster.RouterConfig
	// HealthConfig tunes backend health probing (interval, timeout,
	// failure threshold, backoff cap).
	HealthConfig = cluster.HealthConfig
	// Ring is the consistent-hash ring mapping session IDs to backends.
	Ring = cluster.Ring
	// RingInfo is the ring snapshot served at GET /debug/shards.
	RingInfo = cluster.Info
	// SessionImage is a session's full materialized state (database, state
	// relations — for a Spocus machine, its cumulated inputs —, logs) as
	// written to snapshots and shipped between backends.
	SessionImage = session.Image
	// SessionStateExport is a frozen session's image plus a log digest, the
	// decoded form of what handoff ships; the installing backend refuses
	// the image if the digest does not match its restored logs.
	SessionStateExport = session.StateExport
)

// Re-exported live-verification-plane types.
type (
	// LiveService answers verification queries about running sessions from
	// their current prefixes: goal reachability, temporal checks, and
	// progress suggestions, with a shared memoized answer cache, a bounded
	// worker pool, per-query timeouts, and admission control.
	LiveService = live.Service
	// LiveConfig sizes a LiveService (workers, queue, per-query timeout,
	// solver budgets, answer-cache capacity).
	LiveConfig = live.Config
	// LiveSource is a stable session snapshot a LiveService answers from
	// (see Engine.Peek).
	LiveSource = live.Source
	// LiveStats is a point-in-time metrics snapshot of a LiveService.
	LiveStats = live.Stats
	// GoalAnswer, TemporalAnswer, and ProgressAnswer are the wire answers
	// of the three query kinds.
	GoalAnswer     = live.GoalAnswer
	TemporalAnswer = live.TemporalAnswer
	ProgressAnswer = live.ProgressAnswer
)

// NewEngine creates a session engine, replaying any WAL and snapshots
// under cfg.Dir before accepting requests.
func NewEngine(cfg EngineConfig) (*Engine, error) { return session.NewEngine(cfg) }

// ServerHandler serves the engine over HTTP/JSON (see internal/session's
// Handler for the endpoint list), with a default live verification
// service.
func ServerHandler(e *Engine) http.Handler { return session.Handler(e) }

// ServerHandlerWith is ServerHandler with an explicitly configured live
// verification service.
func ServerHandlerWith(e *Engine, lv *LiveService) http.Handler {
	return session.HandlerWith(e, lv)
}

// NewLiveService creates a live verification service; zero-value config
// fields get defaults.
func NewLiveService(cfg LiveConfig) *LiveService { return live.New(cfg) }

// NewRouter builds a cluster router over the configured backends and
// starts health checking; serve its Handler and Close it on shutdown.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// NewRing creates a standalone consistent-hash ring with the given
// virtual-node count per backend.
func NewRing(vnodes int) *Ring { return cluster.NewRing(vnodes) }

// ModelNames lists the named business models servable by an Engine.
func ModelNames() []string { return models.Names() }

// NetworkNames lists the generated transducer networks openable as
// network sessions by name on the HTTP surface (GET /networks).
func NetworkNames() []string { return models.NetworkNames() }

// GeneratedNetwork returns a fresh spec for a named generated network
// (marketplace, fraud, customization), or nil if the name is unknown.
func GeneratedNetwork(name string) *NetworkSpec { return models.Network(name) }

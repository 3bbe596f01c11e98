// Command spocus-server hosts live Spocus transducer sessions behind an
// HTTP/JSON API — the paper's picture of a business model as a machine
// exchanging input and output relations with a customer, run as a durable
// network service.
//
// Usage:
//
//	spocus-server serve [-addr :8080] [-dir data] [-shards N]
//	                    [-fsync always|interval|never] [-fsync-interval 100ms]
//	                    [-wal-segment-bytes 67108864]
//	                    [-snapshot-every 4096] [-mailbox 1024]
//	                    [-session-rate 0] [-session-burst 0]
//	                    [-verify-workers N] [-verify-queue N]
//	                    [-verify-timeout 2s] [-verify-conflicts 0]
//	                    [-follow http://primary:8080 -follow-dir standby]
//	                    [-repl-sync-wait 250ms]
//	spocus-server waldump <shard-dir | engine-dir>
//	spocus-server bench [-sessions 1000] [-steps 30] [-verify-mix 0.1]
//	                    [-shards N] [-dir DIR] [-fsync never]
//	                    [-url http://router:8090 [-batch 125]]
//	spocus-server bench -replication [-promote-steps 1000] [-promote-rounds 3]
//	spocus-server bench -scenarios builtin|FILE [-scenario-backends 2]
//
// serve exposes:
//
//	POST   /sessions                open a session against a named model
//	POST   /sessions/{id}/input     feed one input-relation set, get outputs + log delta
//	GET    /sessions/{id}/log       the session's durable log
//	GET    /sessions/{id}/verify    live verification (?goal= | ?temporal=)
//	GET    /sessions/{id}/progress  ranked next-input suggestions (?goal=)
//	DELETE /sessions/{id}           close the session
//	GET    /models, /sessions, /healthz, /debug/vars, /debug/pprof/...
//	GET    /admin/wal/stream        long-poll committed WAL records (replication)
//
// With -follow, the server additionally runs a warm standby of another
// backend (see internal/replica): GET /replica/* serves read-only views
// from the standby and POST /admin/replica/promote fails its sessions over
// into this server's own engine.
//
// Sessions are sharded across lock-guarded shards; every applied step is
// written ahead to a per-shard log and compacted into snapshots, so logs
// survive kill -9: on restart the server replays snapshot + WAL before
// accepting traffic.
//
// bench is a load generator driving M concurrent sessions through the
// scripted SHORT shopping loop, in-process or over HTTP, reporting
// throughput and latency percentiles as JSON; -replication and -scenarios
// are its replication-plane and scenario-fleet reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/models"
	"repro/internal/replica"
	"repro/internal/session"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "bench":
		bench(os.Args[2:])
	case "print-network":
		printNetwork(os.Args[2:])
	case "waldump":
		waldump(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spocus-server serve|bench|print-network|waldump [flags]")
	os.Exit(2)
}

// printNetwork emits a generated network spec as JSON — the exact value
// OpenRequest.Network accepts — so shell scripts can open network sessions
// without hand-writing wiring:
//
//	curl -X POST $URL/sessions \
//	  -d "{\"id\":\"n1\",\"network\":$(spocus-server print-network marketplace)}"
func printNetwork(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: spocus-server print-network marketplace|fraud|customization")
		os.Exit(2)
	}
	spec := models.Network(args[0])
	if spec == nil {
		fatal(fmt.Errorf("unknown network %q (have %v)", args[0], models.NetworkNames()))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spocus-server:", err)
	os.Exit(1)
}

// engineFlags registers the flags shared by serve and bench and returns a
// config builder.
func engineFlags(fs *flag.FlagSet, defaultFsync string) func() (session.Config, error) {
	var (
		dir           = fs.String("dir", "", "durability directory for WAL + snapshots (empty: in-memory only)")
		shards        = fs.Int("shards", 0, "session shards (0: GOMAXPROCS)")
		fsync         = fs.String("fsync", defaultFsync, "WAL fsync policy: always | interval | never")
		fsyncInterval = fs.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync interval")
		segmentBytes  = fs.Int64("wal-segment-bytes", 64<<20, "rotate a shard's WAL segment past this size")
		snapEvery     = fs.Int("snapshot-every", 4096, "steps per shard between snapshots (-1: disable)")
		mailbox       = fs.Int("mailbox", 1024, "callers that may wait for one shard's lock; a data-plane request beyond it is rejected with 429")
		sessionRate   = fs.Float64("session-rate", 0, "per-session step rate limit in steps/sec (0: unlimited); excess steps get 429 + Retry-After")
		sessionBurst  = fs.Int("session-burst", 0, "per-session burst allowance under -session-rate (0: max(1, ceil(rate)))")
		replSyncWait  = fs.Duration("repl-sync-wait", 0, "semi-sync replication: hold each group commit's acks until the follower acked it, up to this long (0: async)")
	)
	return func() (session.Config, error) {
		policy, err := session.ParseFsyncPolicy(*fsync)
		if err != nil {
			return session.Config{}, err
		}
		return session.Config{
			Dir:           *dir,
			Shards:        *shards,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SegmentBytes:  *segmentBytes,
			SnapshotEvery: *snapEvery,
			MailboxDepth:  *mailbox,
			SessionRate:   *sessionRate,
			SessionBurst:  *sessionBurst,
			ReplSyncWait:  *replSyncWait,
		}, nil
	}
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	var (
		verifyWorkers   = fs.Int("verify-workers", 0, "concurrent live-verification queries (0: GOMAXPROCS)")
		verifyQueue     = fs.Int("verify-queue", 0, "additional queries allowed to wait (0: 2x workers, -1: none); overflow gets 429")
		verifyTimeout   = fs.Duration("verify-timeout", 2*time.Second, "per-query wall-clock budget; overrun gets 504")
		verifyConflicts = fs.Int64("verify-conflicts", 0, "SAT conflict budget per query (0: unlimited, bounded by -verify-timeout)")
		follow          = fs.String("follow", "", "base URL of a primary to follow as a warm standby (enables /replica/* and /admin/replica/promote)")
		followDir       = fs.String("follow-dir", "", "durability directory for the standby engine (required with -follow)")
	)
	build := engineFlags(fs, "always")
	fs.Parse(args)

	cfg, err := build()
	if err != nil {
		fatal(err)
	}
	eng, err := session.NewEngine(cfg)
	if err != nil {
		fatal(err)
	}
	lv := live.New(live.Config{
		Workers:      *verifyWorkers,
		Queue:        *verifyQueue,
		Timeout:      *verifyTimeout,
		MaxConflicts: *verifyConflicts,
	})
	st := eng.Stats()
	if st.ReplayRecords > 0 || st.SessionsOpen > 0 {
		fmt.Printf("recovered %d sessions (%d WAL records) in %.1fms\n",
			st.SessionsOpen, st.ReplayRecords, st.ReplayMillis)
	}
	handler := session.HandlerWith(eng, lv)
	var follower *replica.Follower
	if *follow != "" {
		if *followDir == "" {
			fatal(fmt.Errorf("-follow requires -follow-dir"))
		}
		follower, err = replica.New(replica.Config{
			Primary: strings.TrimRight(*follow, "/"),
			Dir:     *followDir,
			Fsync:   cfg.Fsync,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		handler = replica.Handler(follower, eng, lv, handler)
		follower.Start()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The address line is machine-parseable; the crash-recovery test and
	// scripts rely on its exact shape.
	fmt.Printf("spocus-server listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Graceful: stop accepting, drain in-flight requests (bounded),
		// then shut the engine down — which snapshots every shard, so the
		// next start replays nothing.
		fmt.Printf("received %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() // drain timed out: cut the stragglers loose
		}
		if follower != nil {
			if err := follower.Stop(); err != nil {
				fatal(err)
			}
		}
		if err := eng.Shutdown(); err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

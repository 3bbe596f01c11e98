// Command spocus-router fronts N spocus-server backends with a
// consistent-hash ring: every session lives on exactly one backend, the
// router proxies the session API there, health-checks eject dead backends
// from the ring, and POST /admin/handoff rebalances individual sessions:
// ship the state image, verify a log digest on the target, then flip the
// ring entry.
//
// Usage:
//
//	spocus-router [-addr :8090] -backends http://h1:8080,http://h2:8080,...
//	              [-health-interval 1s] [-health-timeout 500ms]
//	              [-health-fail-after 2] [-health-max-backoff 5s]
//	              [-follower-reads] [-follower-max-lag 0]
//
// Exposes the spocus-server session API (routed per session) plus:
//
//	GET  /debug/shards                 the live ring: members, health, keyspace shares, pins
//	POST /admin/handoff?session=&to=   move one session to another backend
//	POST /admin/promote?backend=       fail a dead backend's sessions over to its follower
//	GET  /healthz, /debug/vars
//
// With -follower-reads, GET /sessions/{id}/log, /verify, and /progress are
// served by the owner's warm follower (spocus-server -follow) whenever its
// replication lag is within -follower-max-lag, falling back to the primary
// otherwise; responses served this way carry X-Spocus-Served-By. Promotion
// is never automatic: an operator (or script) that knows the backend is
// dead asks for it with POST /admin/promote.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spocus-router:", err)
	os.Exit(1)
}

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated spocus-server base URLs (required)")
		healthEvery   = flag.Duration("health-interval", time.Second, "probe period per backend")
		healthTimeout = flag.Duration("health-timeout", 500*time.Millisecond, "single probe timeout")
		healthFails   = flag.Int("health-fail-after", 2, "consecutive probe failures before marking a backend down")
		healthBackoff = flag.Duration("health-max-backoff", 5*time.Second, "probe backoff cap while a backend is down")
		followerReads = flag.Bool("follower-reads", false, "serve GET log/verify/progress from the owner's follower when within -follower-max-lag")
		followerLag   = flag.Int64("follower-max-lag", 0, "max WAL records a follower may trail the primary and still serve reads")
	)
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "usage: spocus-router -backends http://host:port,... [flags]")
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:       urls,
		FollowerReads:  *followerReads,
		FollowerMaxLag: *followerLag,
		Health: cluster.HealthConfig{
			Interval:   *healthEvery,
			Timeout:    *healthTimeout,
			FailAfter:  *healthFails,
			MaxBackoff: *healthBackoff,
		},
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Machine-parseable, same shape as spocus-server's line; the failover
	// test and scripts rely on it.
	fmt.Printf("spocus-router listening on http://%s (%d backends)\n", ln.Addr(), len(urls))

	srv := &http.Server{Handler: rt.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Graceful: stop accepting, drain in-flight proxied requests.
		fmt.Printf("received %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

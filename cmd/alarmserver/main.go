// Command alarmserver runs the SABRE alarm server on TCP. It installs an
// optional random alarm workload at startup, accepts client connections
// speaking the length-prefixed wire protocol (see cmd/alarmclient), and
// prints the evaluation counters on shutdown (SIGINT/SIGTERM).
//
// The server is always a cluster of spatial shards; by default it has
// one, whose partition is the whole universe. Each shard owns one
// rectangular partition, serves its own TCP listener on consecutive
// ports starting at -addr's, and keeps its own durable store under
// <data-dir>/shard<i>. -shards N (or an explicit -partition CxR grid)
// boots more than one. Clients crossing a partition boundary receive a
// wire Redirect to the owning shard, carrying a resume token minted by
// the in-process session handoff (see PROTOCOL.md "Redirect and
// handoff").
//
// With -data-dir the server is durable: every state change (alarm
// installs, client enrollment, session tokens, firings, acks) is
// written-ahead to each shard's CRC-framed log with periodic snapshots,
// the partition map is committed to <data-dir>/partmap, and the server
// recovers its exact observable state from disk after a crash.
//
// With -rebalance the cluster adapts its partition map to load at
// runtime: every interval it splits the hottest shard above -split-above
// and merges the coldest sibling pair below -merge-below, migrating
// sessions durably and redirecting clients with an epoch-stamped wire
// Redirect (see DESIGN.md "Dynamic repartitioning"). New shards listen on
// base port + shard ID.
//
// With -replicas N (durable mode) every shard streams its WAL to N
// follower logs; a primary silent past -promote-after is deposed — its
// fencing term rejects any late appends — and its best-caught-up
// follower is promoted in place on the same shard ID and listener, with
// the partition-map epoch bumped so clients re-sync (see DESIGN.md
// "Replication and failover"). -repl-ack applies every write to every
// follower before acknowledging it.
//
// With -metrics-addr the server exposes its counters as JSON over HTTP
// (GET /metrics): the cluster counters plus every shard's snapshot,
// including replication term, follower count, acked position and lag.
//
// Usage:
//
//	alarmserver -addr :7700 -side 5000 -alarms 150 -public 0.1 -seed 1
//	alarmserver -addr :7700 -data-dir /var/lib/sabre -snapshot-every 1024
//	alarmserver -addr :7700 -shards 4 -data-dir /var/lib/sabre -metrics-addr :7790
//	alarmserver -addr :7700 -rebalance 5s -split-above 500 -merge-below 100
//	alarmserver -addr :7700 -shards 4 -data-dir /var/lib/sabre -replicas 1 -promote-after 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alarmserver:", err)
		os.Exit(1)
	}
}

// replTickInterval is the wall-clock cadence of the replication clock:
// follower pumps, failure detection and promotions all advance on this
// beat.
const replTickInterval = 500 * time.Millisecond

func run() error {
	var (
		addr    = flag.String("addr", ":7700", "listen address of shard 0; shard i listens on its port + i")
		side    = flag.Float64("side", 5000, "universe side length in metres")
		cellKM2 = flag.Float64("cell-km2", 2.5, "grid cell area in km²")
		height  = flag.Int("pyramid-height", 5, "PBSR pyramid height")
		nAlarms = flag.Int("alarms", 150, "random alarms to install at startup")
		public  = flag.Float64("public", 0.10, "fraction of startup alarms that are public")
		users   = flag.Int("users", 100, "user-id range for random private alarm owners")
		vmax    = flag.Float64("vmax", 34, "system max client speed in m/s (safe periods)")
		seed    = flag.Int64("seed", 1, "alarm generation seed")
		quiet   = flag.Bool("quiet", false, "suppress per-connection logging")
		idle    = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "reap connections silent for this long (0 disables); session state survives for a token resume")

		dataDir   = flag.String("data-dir", "", "durable state directory (partition map + per-shard WAL and snapshots); empty runs memory-only")
		snapEvery = flag.Int("snapshot-every", 1024, "checkpoint each shard's durable state every N log appends (0 disables automatic checkpoints)")
		fsync     = flag.Bool("fsync", true, "fsync the WAL on every append (power-failure durability; off still survives process crashes)")
		sessTTL   = flag.Duration("session-ttl", 0, "expire reliable sessions idle for this long (0 disables expiry)")

		shards      = flag.Int("shards", 1, "spatial partitions (shards) to boot; shard i listens on -addr's port + i")
		partition   = flag.String("partition", "", "explicit partition grid as CxR, e.g. 4x2 (overrides the near-square split of -shards)")
		metricsAddr = flag.String("metrics-addr", "", "serve counters as JSON over HTTP on this address (GET /metrics)")

		replicas     = flag.Int("replicas", 0, "follower logs per shard for WAL replication and failover (needs -data-dir; 0 disables)")
		promoteAfter = flag.Duration("promote-after", 2*time.Second, "promote a follower after a primary has been silent this long (with -replicas)")
		replAck      = flag.Bool("repl-ack", false, "synchronous replication: apply every write to every follower before acknowledging it")

		rebalance  = flag.Duration("rebalance", 0, "observe per-shard load on this interval and split hot / merge cold partitions at runtime (0 disables)")
		splitAbove = flag.Int("split-above", 0, "split a shard whose load score (sessions + updates per window) exceeds this (0 disables splits)")
		mergeBelow = flag.Int("merge-below", 0, "merge sibling shards whose combined load score falls below this (0 disables merges)")
		maxShards  = flag.Int("max-shards", 0, "cap on live shards for runtime splits (0 = no cap)")
		minShards  = flag.Int("min-shards", 0, "floor on live shards for runtime merges (0 = floor of 1)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "alarmserver: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	model, err := motion.New(1, 32)
	if err != nil {
		return err
	}
	cols, rows, err := parsePartition(*partition)
	if err != nil {
		return err
	}
	// The failure detector counts replication ticks; a promotion window
	// shorter than one tick still waits a full tick.
	promoteTicks := int(*promoteAfter / replTickInterval)
	if promoteTicks < 1 {
		promoteTicks = 1
	}
	cl, err := cluster.New(cluster.Config{
		Shards: *shards,
		Cols:   cols,
		Rows:   rows,
		Engine: server.Config{
			Universe:                geom.Rect{MinX: -100, MinY: -100, MaxX: *side + 100, MaxY: *side + 100},
			CellAreaM2:              *cellKM2 * 1e6,
			Model:                   model,
			PyramidParams:           pyramid.Params{U: 3, V: 3, Height: *height, MaxBits: 2048},
			MaxSpeed:                *vmax,
			TickSeconds:             1,
			PrecomputePublicBitmaps: true,
			Costs:                   metrics.DefaultCosts(),
		},
		DataDir:      *dataDir,
		Store:        store.Options{Fsync: *fsync, SnapshotEvery: *snapEvery},
		Replicas:     *replicas,
		PromoteAfter: promoteTicks,
		ReplAck:      *replAck,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	installed := 0
	for i := 0; i < cl.N(); i++ {
		eng := cl.Engine(i)
		if eng == nil {
			continue
		}
		installed += eng.Registry().Len()
		if m := eng.Metrics().Snapshot(); m.RecoveredRecords > 0 || m.WALTruncatedBytes > 0 {
			fmt.Printf("shard %d: recovered generation %d: %d log records replayed, %d torn bytes discarded\n",
				i, eng.Store().Gen(), m.RecoveredRecords, m.WALTruncatedBytes)
		}
	}
	if installed == 0 && *nAlarms > 0 {
		if _, err := cl.InstallAlarms(makeRandomAlarms(*nAlarms, *public, *users, *side, *seed)); err != nil {
			return err
		}
	} else if installed > 0 {
		fmt.Printf("recovered alarms from %s (%d shard-local copies)\n", *dataDir, installed)
	}

	addrs, err := shardAddrs(*addr, cl.N())
	if err != nil {
		return err
	}
	srv, err := cluster.NewTCP(cl, addrs, logger, *idle)
	if err != nil {
		return err
	}
	fmt.Printf("alarmserver: %d shard(s), map epoch %d (universe %.0f m, cell %.2f km²)\n",
		cl.PartitionMap().N(), cl.Epoch(), *side, *cellKM2)
	for i, a := range srv.Addrs() {
		if rect, ok := cl.PartitionMap().RectOf(i); ok {
			fmt.Printf("  shard %d: %s owns %v\n", i, a, rect)
		}
	}

	if *metricsAddr != "" {
		msrv, err := serveMetrics(*metricsAddr, cl)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}

	// The replication clock beats on a fixed interval: live primaries
	// pump their follower streams, a primary silent for -promote-after
	// is deposed and its best follower promoted in place (same shard ID,
	// same listener — clients see a re-served shard, not a new address),
	// and any merge drain interrupted by a failover resumes. Closing stop
	// ends every background loop below.
	stop := make(chan struct{})
	if *replicas > 0 {
		fmt.Printf("replication: %d follower(s) per shard, promote after %d silent ticks of %v (ack=%v)\n",
			*replicas, promoteTicks, replTickInterval, *replAck)
		go func() {
			t := time.NewTicker(replTickInterval)
			defer t.Stop()
			now := 0
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					now++
					promoted := cl.Metrics().Snapshot().Promotions
					cl.TickReplication(now)
					if got := cl.Metrics().Snapshot().Promotions; got > promoted {
						fmt.Printf("replication: promoted %d follower(s), map epoch %d\n", got-promoted, cl.Epoch())
					}
					if err := cl.ResumeDrains(); err != nil {
						fmt.Fprintf(os.Stderr, "alarmserver: resume drains: %v\n", err)
					}
				}
			}
		}()
	}

	// The balancer observes per-shard load each interval and performs at
	// most one split and one merge per tick; a split's new shard gets its
	// own listener (base port + shard ID) before clients can be
	// redirected to it, and until then the reports it owns go
	// unanswered and their clients resend them.
	if *rebalance > 0 {
		bcfg := cluster.BalancerConfig{SplitAbove: *splitAbove, MergeBelow: *mergeBelow, MaxShards: *maxShards, MinShards: *minShards}
		bal, err := cluster.NewBalancer(cl, bcfg)
		if err != nil {
			return err
		}
		fmt.Printf("rebalancing every %v (split above %d, merge below %d)\n", *rebalance, *splitAbove, *mergeBelow)
		go func() {
			t := time.NewTicker(*rebalance)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					actions, err := bal.Step()
					if err != nil {
						fmt.Fprintf(os.Stderr, "alarmserver: rebalance: %v\n", err)
						continue
					}
					if len(actions) == 0 {
						continue
					}
					for _, a := range actions {
						fmt.Printf("rebalance: %s (map epoch %d)\n", a, cl.Epoch())
					}
					bound := srv.Addrs()
					for _, s := range cl.PartitionMap().Shards() {
						if s < len(bound) && bound[s] != "" {
							continue
						}
						addr, err := shardAddr(*addr, s)
						if err != nil {
							fmt.Fprintf(os.Stderr, "alarmserver: rebalance: %v\n", err)
							continue
						}
						if la, err := srv.ServeShard(s, addr); err != nil {
							fmt.Fprintf(os.Stderr, "alarmserver: rebalance: shard %d listener: %v\n", s, err)
						} else {
							fmt.Printf("rebalance: shard %d serving on %s\n", s, la)
						}
					}
				}
			}
		}()
	}

	// Session expiry runs off the wall clock; each sweep reaps every live
	// shard's reliable sessions idle past the TTL and logs their
	// ExpireRec durably.
	if *sessTTL > 0 {
		go func() {
			t := time.NewTicker(*sessTTL / 4)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for i := 0; i < cl.N(); i++ {
						eng := cl.Engine(i)
						if eng == nil {
							continue
						}
						if n, err := eng.ExpireSessions(*sessTTL); err != nil {
							fmt.Fprintf(os.Stderr, "alarmserver: shard %d session expiry: %v\n", i, err)
						} else if n > 0 {
							fmt.Printf("shard %d: expired %d idle sessions\n", i, n)
						}
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	select {
	case <-sig:
		close(stop)
		srv.Close()
		<-errc
	case err := <-errc:
		close(stop)
		return err
	}

	// Clean shutdown: checkpoint every durable shard so the next boot
	// recovers without replay, then total the counters for the printout.
	for i := 0; i < cl.N(); i++ {
		if eng := cl.Engine(i); eng != nil && eng.Store() != nil {
			if err := eng.Store().Checkpoint(); err != nil {
				return fmt.Errorf("shard %d shutdown checkpoint: %w", i, err)
			}
		}
	}
	sum := cl.ShardTotals()
	if err := cl.Close(); err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Printf("checkpointed %d shard stores under %s\n", cl.N(), *dataDir)
	}

	cm := cl.Metrics().Snapshot()
	fmt.Printf("\n--- session counters ---\n")
	fmt.Printf("uplink:    %d msgs, %d bytes\n", sum.UplinkMessages, sum.UplinkBytes)
	fmt.Printf("downlink:  %d msgs, %d bytes\n", sum.DownlinkMessages, sum.DownlinkBytes)
	fmt.Printf("triggers:  %d\n", sum.AlarmsTriggered)
	fmt.Printf("sessions:  %d opened, %d resumed, %d heartbeats, %d expired\n",
		sum.SessionsOpened, sum.SessionsResumed, sum.Heartbeats, sum.SessionsExpired)
	fmt.Printf("recovery:  %d duplicate updates, %d firing redeliveries, %d evictions\n",
		sum.RedeliveredUpdates, sum.FiredRedeliveries, sum.FiredEvictions)
	if *dataDir != "" {
		fmt.Printf("durability: %d appends (%d bytes), %d fsyncs, %d snapshots, %d records replayed at boot\n",
			sum.WALAppends, sum.WALBytes, sum.WALFsyncs, sum.Snapshots, sum.RecoveredRecords)
	}
	fmt.Printf("routing:   %d redirects sent, %d out-of-universe positions clamped\n",
		cm.RedirectsSent, cm.LocateClamped)
	fmt.Printf("handoffs:  %d completed, %d deferred\n", cm.Handoffs, cm.HandoffsDeferred)
	fmt.Printf("rebalance: %d splits, %d merges, %d sessions drained (final epoch %d, %d shards)\n",
		cm.Splits, cm.Merges, cm.SessionsDrained, cl.Epoch(), cl.PartitionMap().N())
	fmt.Printf("cpu model: alarm processing %.3fs, safe region %.3fs\n", sum.AlarmProcessingSeconds(), sum.SafeRegionSeconds())
	return nil
}

// makeRandomAlarms generates a workload mirroring the simulation's
// composition (public fraction, private:shared 2:1).
func makeRandomAlarms(n int, publicFrac float64, users int, side float64, seed int64) []alarm.Alarm {
	rng := rand.New(rand.NewSource(seed))
	numPublic := int(float64(n) * publicFrac)
	numShared := (n - numPublic) / 3
	batch := make([]alarm.Alarm, 0, n)
	for i := 0; i < n; i++ {
		a := alarm.Alarm{
			Owner: alarm.UserID(rng.Intn(users) + 1),
			Region: geom.RectAround(
				geom.Pt(rng.Float64()*side, rng.Float64()*side),
				100+rng.Float64()*300,
			),
		}
		switch {
		case i < numPublic:
			a.Scope = alarm.Public
		case i < numPublic+numShared:
			a.Scope = alarm.Shared
			a.Subscribers = []alarm.UserID{a.Owner, alarm.UserID(rng.Intn(users) + 1)}
		default:
			a.Scope = alarm.Private
		}
		batch = append(batch, a)
	}
	return batch
}

// parsePartition parses a "CxR" grid spec ("4x2"); empty means no
// explicit grid (0, 0).
func parsePartition(s string) (cols, rows int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	c, r, ok := strings.Cut(s, "x")
	if ok {
		cols, err = strconv.Atoi(strings.TrimSpace(c))
		if err == nil {
			rows, err = strconv.Atoi(strings.TrimSpace(r))
		}
	}
	if !ok || err != nil || cols < 1 || rows < 1 {
		return 0, 0, fmt.Errorf("bad -partition %q: want CxR, e.g. 4x2", s)
	}
	return cols, rows, nil
}

// shardAddrs derives one listen address per shard from the base -addr
// by incrementing the port: :7700 with 4 shards listens on 7700..7703. A
// base port of 0 keeps 0 everywhere (ephemeral ports for every shard).
func shardAddrs(base string, n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		a, err := shardAddr(base, i)
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	return addrs, nil
}

// shardAddr derives the listen address for one shard ID from the base
// -addr, so shards allocated by runtime splits keep the same port
// scheme as the boot-time grid.
func shardAddr(base string, shard int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("bad -addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad -addr %q: want a numeric port", base)
	}
	if port != 0 {
		port += shard
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// serveMetrics serves the cluster counters and every shard's snapshot as
// indented JSON on GET /metrics (and /) in a background goroutine until
// the returned server is closed.
func serveMetrics(addr string, cl *cluster.Cluster) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	handler := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		payload := struct {
			Cluster metrics.ClusterSnapshot `json:"cluster"`
			Shards  []cluster.ShardStatus   `json:"shards"`
		}{cl.Metrics().Snapshot(), cl.ShardSnapshots()}
		if err := enc.Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	mux.HandleFunc("/metrics", handler)
	mux.HandleFunc("/", handler)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	return srv, nil
}

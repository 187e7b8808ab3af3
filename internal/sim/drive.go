package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// Traffic is what Drive replays: a *Workload (road-network mobility) or
// a LifecycleScenario (scripted paths).
type Traffic interface {
	replay() (*replay, error)
}

// link is one client's live connection to one listener of the front end:
// a fault-injecting wrapper on each end of one pipe (uplink faults on cli,
// downlink faults on srv), so one reset kills the pair. With a zero
// LinkFaults both wrappers pass everything straight through. conn is the
// front end's state for the srv end.
type link struct {
	listener int
	cli      *transport.FaultyConn
	srv      *transport.FaultyConn
	conn     server.ConnState
	// closing marks a link the front end dropped: it is closed at the next
	// serving phase, after the session read what was sent before the drop,
	// as a client reads a socket's last frames before its EOF.
	closing bool
}

// driver is the state of one Drive run.
type driver struct {
	tr      *replay
	plan    Plan
	engCfg  server.Config
	dataDir string
	rng     *rand.Rand // WAL tail mangling

	// The server side: the cluster and the TCP front end over it, with no
	// socket bound; both are nil while the process is down.
	cl *cluster.Cluster
	fe *server.TCPServer

	sessions    []*client.Session
	links       []*link
	incarnation []int
	tick        int
	triggers    []Trigger
	serverWall  time.Duration

	// Cursors into the plan's event lists, and pending recoveries.
	crashes, shardCrashes, kills, repartitions int
	downUntil                                  int
	shardDownUntil                             map[int]int
}

// Drive replays the traffic with every client behind its own link and
// the full session layer active (Hello/Resume, heartbeats, reconnect with
// backoff, report queues, FiredAck, Redirect) against the topology the
// plan selects, injecting the plan's faults. The server side is what
// alarmserver boots — a cluster of Plan.Shards shards (one by default)
// behind the TCP front end — with in-memory links in place of sockets:
// each link's frames go to the front end's per-frame Dispatch. Sessions
// dial listener 0 and follow Redirects to the shard that owns them. It
// is single-threaded and fully deterministic: the same traffic, strategy
// and plan yield the same trigger sequence, delivery ticks included.
//
// Every tick runs the same phases in the same order, each a no-op when
// the plan has nothing for it: advance the traffic; fire scripted
// process and shard events; advance the servers' logical clock; advance
// every link's fault clock; step the sessions in index order; serve
// every link in index order; beat the replication clock. Triggers are
// recorded at client delivery, deduplicated by the session, so for the
// safe-region strategies the delivered (user, alarm) set must equal the
// periodic ground truth's — a fault-free PRD run — whatever the plan:
// the property TestDeliveryEquality asserts row by row. The SP baseline
// is excluded from that equality on clusters: its safe periods are
// clamped at partition margins, which changes which positions the server
// sees.
//
// A plan that needs disk (crashes, crash points, replicas) uses dataDir,
// which must start empty; left blank, a temporary directory is created
// and removed before returning. Any other plan runs in memory and
// ignores dataDir.
func Drive(traffic Traffic, sc StrategyConfig, plan Plan, dataDir string) (*Report, error) {
	sc = sc.withDefaults()
	rep, _, err := drive(traffic, sc, plan, dataDir, func(int) (wire.Strategy, int) { return sc.Strategy, sc.PyramidHeight })
	return rep, err
}

// drive is Drive over a fleet that may mix strategies: vehicle i runs
// fleet(i)'s strategy and pyramid height, and sc (defaults filled)
// supplies the server knobs. It also returns each client's counters.
func drive(traffic Traffic, sc StrategyConfig, plan Plan, dataDir string, fleet func(i int) (wire.Strategy, int)) (*Report, []metrics.Client, error) {
	switch {
	case !plan.durable():
		dataDir = ""
	case dataDir == "":
		tmp, err := os.MkdirTemp("", "sabre-sim-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	tr, err := traffic.replay()
	if err != nil {
		return nil, nil, err
	}
	d := &driver{
		tr:             tr,
		plan:           plan,
		engCfg:         tr.engineConfig(sc),
		dataDir:        dataDir,
		rng:            rand.New(rand.NewSource(plan.Seed ^ 0x5ABE)),
		links:          make([]*link, tr.users),
		incarnation:    make([]int, tr.users),
		shardDownUntil: make(map[int]int),
	}
	if err := d.boot(); err != nil {
		return nil, nil, err
	}
	defer func() {
		if d.cl != nil {
			d.cl.Close()
		}
	}()
	if _, err := d.cl.InstallAlarms(tr.alarms); err != nil {
		return nil, nil, err
	}

	perClient := make([]metrics.Client, tr.users)
	d.sessions = make([]*client.Session, tr.users)
	for i := range d.sessions {
		i, user := i, uint64(i+1)
		strategy, height := fleet(i)
		scfg := plan.Session
		scfg.MaxHeight = uint8(height)
		scfg.JitterSeed = plan.Seed ^ int64(user)<<17
		d.sessions[i] = client.NewSession(client.New(user, strategy, &perClient[i]),
			func() (transport.Conn, error) { return d.dial(i, 0) }, scfg, &perClient[i])
		d.sessions[i].DialTo = func(addr string) (transport.Conn, error) {
			listener, err := strconv.Atoi(strings.TrimPrefix(addr, listenerPrefix))
			if err != nil {
				return nil, fmt.Errorf("sim: no listener %q", addr)
			}
			return d.dial(i, listener)
		}
		d.sessions[i].OnFired = func(ids []uint64) {
			for _, id := range ids {
				d.triggers = append(d.triggers, Trigger{User: user, Alarm: id, Tick: d.tick})
			}
		}
	}

	for d.tick = 0; d.tick < tr.ticks+plan.DrainTicks; d.tick++ {
		if err := d.runTick(); err != nil {
			return nil, nil, err
		}
	}
	if err := d.checkSettled(); err != nil {
		return nil, nil, err
	}

	// Server counters restart with every incarnation — a shard's with its
	// recovery, everything with a process crash — so the totals are the
	// final incarnation's.
	rep := tr.report(sc.Strategy, d.cl.ShardTotals(), perClient, d.triggers, d.serverWall)
	clusterMet := d.cl.Metrics().Snapshot()
	rep.Cluster = &clusterMet
	rep.PartitionMap = d.cl.PartitionMap()
	rep.PartitionEpoch = rep.PartitionMap.Epoch()
	return rep, perClient, nil
}

// listenerPrefix names the front end's listeners: listener i is
// listenerPrefix+i, the address its Redirects carry.
const listenerPrefix = "shard"

// boot brings the server side up: first start, or a reopen after a
// process crash. A durable boot rebuilds whatever survived in dataDir;
// cumulative counters restart with each incarnation. The front end binds
// no socket: the sim names each listener instead, and carries its links'
// frames to Dispatch itself.
func (d *driver) boot() error {
	cl, err := cluster.New(cluster.Config{
		Shards:       max(d.plan.Shards, 1),
		Engine:       d.engCfg,
		DataDir:      d.dataDir,
		Store:        store.Options{Fsync: d.plan.Fsync, SnapshotEvery: d.plan.SnapshotEvery},
		Replicas:     d.plan.Replicas,
		PromoteAfter: d.plan.PromoteAfter,
		ReplAck:      d.plan.ReplAck,
	})
	if err != nil {
		return err
	}
	fe, err := cluster.NewTCP(cl, make([]string, cl.N()), nil, 0)
	if err != nil {
		return err
	}
	d.cl, d.fe = cl, fe.TCPServer
	for s := 0; s < cl.N(); s++ {
		d.nameListener(s)
	}
	return nil
}

// nameListener names listener i (shard i's, on a cluster), as ServeShard
// gives a shard its listener.
func (d *driver) nameListener(i int) {
	d.fe.Name(i, listenerPrefix+strconv.Itoa(i))
}

// dial opens session i's link to a listener of the front end. Like a
// socket, it connects whenever the process is up, whether or not the
// listener's engine is serving.
func (d *driver) dial(i, listener int) (transport.Conn, error) {
	if d.fe == nil {
		return nil, errors.New("sim: server down")
	}
	if listener < 0 || listener >= len(d.fe.Addrs()) {
		return nil, fmt.Errorf("sim: no listener %d", listener)
	}
	d.incarnation[i]++
	user := uint64(i + 1)
	cEnd, sEnd := transport.Pipe(4096)
	ln := &link{
		listener: listener,
		cli:      transport.Faulty(cEnd, d.plan.linkSchedule(user, 0, d.incarnation[i]), d.tick),
		srv:      transport.Faulty(sEnd, d.plan.linkSchedule(user, 1, d.incarnation[i]), d.tick),
	}
	ln.conn.Conn = ln.srv
	d.links[i] = ln
	return ln.cli, nil
}

// closeLinks severs every connection, as a process death does.
func (d *driver) closeLinks() {
	for i, ln := range d.links {
		if ln != nil {
			ln.cli.Close()
			d.links[i] = nil
		}
	}
}

// runTick runs one tick's phases. The order is fixed — it is what makes
// a plan replay identically — and every scripted event lands before the
// tick's reports are served.
func (d *driver) runTick() error {
	tick, live := d.tick, d.tick < d.tr.ticks
	if live {
		d.tr.advance(tick)
	}
	if err := d.processEvents(); err != nil {
		return err
	}
	if err := d.shardEvents(); err != nil {
		return err
	}

	// The logical clock drives lifecycle TTLs and staleness slack; it is
	// a no-op for tables without lifecycle alarms. Down servers catch up
	// on their first tick after recovery.
	if d.cl != nil {
		if err := d.cl.SetTick(uint64(tick)); err != nil {
			return fmt.Errorf("sim: set tick %d: %w", tick, err)
		}
	}

	// Fault clocks release delayed traffic and fire scheduled resets; a
	// reset link is dropped and its session reconnects.
	for i, ln := range d.links {
		if ln != nil && (ln.cli.Advance(tick) != nil || ln.srv.Advance(tick) != nil) {
			d.links[i] = nil
		}
	}

	// Sessions evaluate, (re)connect and (re)send in index order. Once the
	// trace ends they only settle in-flight traffic (resends, firing
	// redeliveries, acks) instead of reporting the frozen position forever
	// — a perpetually-unsafe client would otherwise keep an entry in
	// flight at every cutoff.
	for i, s := range d.sessions {
		if live {
			s.Step(tick, d.tr.position(i))
		} else {
			s.Quiesce(tick)
		}
	}

	// The front end drains each link in index order and replies down the
	// same link; responses reach the session next tick.
	for i, ln := range d.links {
		if ln != nil && !d.serve(ln) {
			d.links[i] = nil
		}
	}

	// The replication clock beats once per tick — live primaries pump
	// their follower streams, silent ones are deposed and failed over —
	// and any drain interrupted by a kill resumes as soon as a promotion
	// has both of its shards serving again.
	if d.plan.Replicas > 0 && d.cl != nil {
		d.cl.TickReplication(tick)
		if err := d.cl.ResumeDrains(); err != nil {
			return fmt.Errorf("sim: resume drains at tick %d: %w", tick, err)
		}
	}
	return nil
}

// processEvents fires the plan's process crashes and reboots a crashed
// process once its downtime has passed. The reboot recovers every shard
// from whatever survived on disk, resume tokens included, so
// reconnecting sessions resume rather than re-enroll.
func (d *driver) processEvents() error {
	if d.cl != nil && d.crashes < len(d.plan.Crashes) && d.tick >= d.plan.Crashes[d.crashes].Tick {
		ev := d.plan.Crashes[d.crashes]
		d.crashes++
		return d.crash(ev.Tear, ev.Down)
	}
	return d.rebootDue()
}

// crash kills the whole process, as a scripted crash or a crash point
// does: every live shard's store dies without a checkpoint, each WAL
// tail is mangled per tear in shard order, and every connection closes.
// Pending shard recoveries are moot: the reboot, down ticks later (at
// once for 0), brings every shard back.
func (d *driver) crash(tear store.TearMode, down int) error {
	var wals []string
	for s := 0; s < d.cl.N(); s++ {
		if eng := d.cl.Engine(s); eng != nil {
			wals = append(wals, eng.Store().WALPath())
		}
	}
	d.cl.Crash()
	for _, wal := range wals {
		if err := store.MangleTail(wal, tear, d.rng); err != nil {
			return fmt.Errorf("sim: crash at tick %d: mangle %s: %w", d.tick, wal, err)
		}
	}
	d.closeLinks()
	d.cl, d.fe = nil, nil
	d.shardDownUntil = make(map[int]int)
	d.downUntil = d.tick + down
	return d.rebootDue()
}

// rebootDue reboots a crashed process whose downtime has passed.
func (d *driver) rebootDue() error {
	if d.fe == nil && d.tick >= d.downUntil {
		if err := d.boot(); err != nil {
			return fmt.Errorf("sim: reboot at tick %d: %w", d.tick, err)
		}
	}
	return nil
}

// shardEvents fires the cluster sections of the plan. A shard's listener
// outlives its engine: while the shard is down, and once after it came
// back, it drops each link on the link's next frame, and the session
// reconnects with backoff. Only a whole-process crash closes every link.
// While the process is down, due events wait for its reboot.
func (d *driver) shardEvents() error {
	if d.cl == nil {
		return nil
	}
	p, tick := d.plan, d.tick
	// A scripted crash kills one shard's store and mangles its WAL tail;
	// the other shards keep serving.
	for ; d.shardCrashes < len(p.ShardCrashes) && tick >= p.ShardCrashes[d.shardCrashes].Tick; d.shardCrashes++ {
		ev := p.ShardCrashes[d.shardCrashes]
		if err := d.cl.KillShard(ev.Shard, ev.Tear, d.rng); err != nil {
			return fmt.Errorf("sim: shard crash %d: %w", d.shardCrashes+1, err)
		}
		d.shardDownUntil[ev.Shard] = tick + ev.Down
	}
	due := make([]int, 0, len(d.shardDownUntil))
	for s, until := range d.shardDownUntil {
		if tick >= until {
			due = append(due, s)
		}
	}
	sort.Ints(due)
	for _, s := range due {
		if err := d.cl.RecoverShard(s); err != nil {
			return fmt.Errorf("sim: recover shard %d at tick %d: %w", s, tick, err)
		}
		delete(d.shardDownUntil, s)
	}

	// A plain kill fail-stops the primary mid-flight; a MidDrain kill
	// first drives a merge into its armed crash point so the primary dies
	// with a committed drain entry and every session still resident.
	// Nothing recovers a killed primary but a follower promotion.
	for ; d.kills < len(p.Kills) && tick >= p.Kills[d.kills].Tick; d.kills++ {
		ev := p.Kills[d.kills]
		if ev.MidDrain {
			d.cl.SetCrashPoint(cluster.CPDrainBeforeImport)
			if err := d.cl.MergeShards(ev.Into, ev.Shard); !errors.Is(err, cluster.ErrCrashPoint) {
				return fmt.Errorf("sim: kill %d: merge %d→%d did not stop mid-drain (err=%v) — shard %d has no sessions to drain",
					d.kills+1, ev.Shard, ev.Into, err, ev.Shard)
			}
		}
		if err := d.cl.KillShard(ev.Shard, ev.Tear, d.rng); err != nil {
			return fmt.Errorf("sim: kill %d: %w", d.kills+1, err)
		}
	}

	// A split or merge runs between ticks with clients mid-flight. A
	// CrashPoint event turns into a whole-process crash at the scripted
	// point, after which the cluster reopens from its data dir at once
	// (resuming any committed drain).
	for ; d.repartitions < len(p.Repartitions) && tick >= p.Repartitions[d.repartitions].Tick; d.repartitions++ {
		ev := p.Repartitions[d.repartitions]
		if ev.CrashPoint != "" {
			d.cl.SetCrashPoint(ev.CrashPoint)
		}
		var err error
		switch ev.Op {
		case "split":
			var shard int
			if shard, err = d.cl.SplitShard(ev.Shard); err == nil {
				d.nameListener(shard)
			}
		case "merge":
			err = d.cl.MergeShards(ev.Into, ev.Shard)
		default:
			return fmt.Errorf("sim: repartition %d: unknown op %q", d.repartitions+1, ev.Op)
		}
		if err == nil {
			continue
		}
		if ev.CrashPoint == "" || !errors.Is(err, cluster.ErrCrashPoint) {
			return fmt.Errorf("sim: repartition %d (%s shard %d) at tick %d: %w", d.repartitions+1, ev.Op, ev.Shard, tick, err)
		}
		if err := d.crash(store.TearNone, 0); err != nil {
			return fmt.Errorf("sim: crash point %q: %w", ev.CrashPoint, err)
		}
	}
	return nil
}

// serve hands each pending uplink frame of one link to the front end,
// and reports false once the link is dead; the session replays on
// reconnect. A link the front end dropped is closed a phase later, so
// the session still reads the frames sent before the drop.
func (d *driver) serve(ln *link) bool {
	if ln.closing {
		ln.srv.Close()
		return false
	}
	for {
		m, ok, err := ln.srv.TryRecv()
		if err != nil {
			return false
		}
		if !ok {
			return true
		}
		start := time.Now()
		open := d.fe.Dispatch(ln.listener, &ln.conn, m)
		switch m.(type) {
		case wire.PositionUpdate, wire.UpdateBatch:
			d.serverWall += time.Since(start)
		}
		if !open {
			ln.closing = true
			return true
		}
	}
}

// checkSettled is the one set of end-of-run checks: queues drained, every
// scripted event fired, and every server the final topology needs up.
func (d *driver) checkSettled() error {
	for i, s := range d.sessions {
		if qs := s.QueueLen(); qs > 0 {
			return fmt.Errorf("sim: user %d still has %d undrained reports after %d drain ticks — extend DrainTicks or end the faults earlier", i+1, qs, d.plan.DrainTicks)
		}
	}
	p := d.plan
	for _, c := range []struct {
		what        string
		fired, want int
	}{
		{"crashes", d.crashes, len(p.Crashes)},
		{"shard crashes", d.shardCrashes, len(p.ShardCrashes)},
		{"kills", d.kills, len(p.Kills)},
		{"repartitions", d.repartitions, len(p.Repartitions)},
	} {
		if c.fired != c.want {
			return fmt.Errorf("sim: only %d of %d %s fired — trace too short for the plan", c.fired, c.want, c.what)
		}
	}
	if d.fe == nil {
		return fmt.Errorf("sim: server still down at trace end — its Down outlives the run")
	}
	// Every shard live under the final map must be serving; retired IDs
	// (merged away mid-run) legitimately have no engine.
	for _, s := range d.cl.PartitionMap().Shards() {
		if !d.cl.Up(s) {
			return fmt.Errorf("sim: shard %d still down at trace end — its Down outlives the run, or no follower was promotable", s)
		}
	}
	return nil
}

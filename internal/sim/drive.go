package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
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

// backend is the server side of every link: one engine or a cluster
// router. A *cluster.ShardDownError from any handler means "nothing was
// processed, send nothing" — the session's resend machinery retries.
type backend interface {
	HandleHello(wire.Hello) ([]wire.Message, error)
	HandleHeartbeat(user uint64, hb wire.Heartbeat) []wire.Message
	HandleAck(user uint64, ids []uint64) error
	HandleUpdate(wire.PositionUpdate) ([]wire.Message, error)
	HandleUpdateBatch(wire.UpdateBatch) (wire.BatchReply, error)
}

// engineBackend serves links straight from one engine.
type engineBackend struct{ eng *server.Engine }

func (b engineBackend) HandleHello(m wire.Hello) ([]wire.Message, error) {
	out, _, err := b.eng.HandleHello(m)
	return out, err
}

func (b engineBackend) HandleHeartbeat(user uint64, hb wire.Heartbeat) []wire.Message {
	return b.eng.HandleHeartbeat(alarm.UserID(user), hb)
}

func (b engineBackend) HandleAck(user uint64, ids []uint64) error {
	return b.eng.AckFired(alarm.UserID(user), ids)
}

func (b engineBackend) HandleUpdate(u wire.PositionUpdate) ([]wire.Message, error) {
	return b.eng.HandleUpdate(u)
}

func (b engineBackend) HandleUpdateBatch(ub wire.UpdateBatch) (wire.BatchReply, error) {
	return b.eng.HandleUpdateBatch(ub)
}

// routerBackend serves links through a cluster router, which already
// absorbs ack failures (a dying shard redelivers and the session re-acks).
type routerBackend struct{ *cluster.Router }

func (b routerBackend) HandleAck(user uint64, ids []uint64) error {
	b.Router.HandleAck(user, ids)
	return nil
}

// link is one client's live connection: a fault-injecting wrapper on each
// end of one pipe (uplink faults on cli, downlink faults on srv), so one
// reset kills the pair. With a zero LinkFaults both wrappers pass
// everything straight through.
type link struct {
	user uint64
	cli  *transport.FaultyConn
	srv  *transport.FaultyConn
}

// driver is the state of one Drive run.
type driver struct {
	tr      *replay
	plan    Plan
	engCfg  server.Config
	dataDir string
	rng     *rand.Rand // WAL tail mangling

	// The server side: eng for the single-engine topology, cl for a
	// cluster; be serves the links and is nil while the process is down.
	eng *server.Engine
	cl  *cluster.Cluster
	be  backend

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
// backoff, report queues, FiredAck) against the topology the plan
// selects, injecting the plan's faults. It is single-threaded and fully
// deterministic: the same traffic, strategy and plan yield the same
// trigger sequence, delivery ticks included.
//
// Every tick runs the same phases in the same order, each a no-op when
// the plan has nothing for it: advance the traffic; fire scripted
// process and shard events; advance the servers' logical clock; advance
// every link's fault clock; step the sessions in index order; serve
// every link in index order; beat the replication clock. Triggers are
// recorded at client delivery (deduplicated by the session, and across
// shards by the router), so for the safe-region strategies the delivered
// (user, alarm) set must equal a direct Run's whatever the plan — the
// property TestDeliveryEquality asserts row by row. The SP baseline is
// excluded from that equality on clusters: its safe periods are clamped
// at partition margins, which changes which positions the server sees.
//
// A plan that needs disk (crashes, crash points, replicas) uses dataDir,
// which must start empty; left blank, a temporary directory is created
// and removed before returning.
func Drive(traffic Traffic, sc StrategyConfig, plan Plan, dataDir string) (*Report, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if dataDir == "" && plan.durable() {
		tmp, err := os.MkdirTemp("", "sabre-sim-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	sc = sc.withDefaults()
	tr, err := traffic.replay()
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer d.close()
	if d.cl != nil {
		_, err = d.cl.InstallAlarms(tr.alarms)
	} else {
		_, err = d.eng.InstallAlarms(tr.alarms)
	}
	if err != nil {
		return nil, err
	}

	perClient := make([]metrics.Client, tr.users)
	d.sessions = make([]*client.Session, tr.users)
	for i := range d.sessions {
		i, user := i, uint64(i+1)
		scfg := plan.Session
		scfg.MaxHeight = uint8(sc.PyramidHeight)
		scfg.JitterSeed = plan.Seed ^ int64(user)<<17
		dial := func() (transport.Conn, error) {
			if d.be == nil {
				return nil, errors.New("sim: server down")
			}
			d.incarnation[i]++
			cEnd, sEnd := transport.Pipe(4096)
			d.links[i] = &link{
				user: user,
				cli:  transport.Faulty(cEnd, plan.linkSchedule(user, 0, d.incarnation[i]), d.tick),
				srv:  transport.Faulty(sEnd, plan.linkSchedule(user, 1, d.incarnation[i]), d.tick),
			}
			return d.links[i].cli, nil
		}
		d.sessions[i] = client.NewSession(client.New(user, sc.Strategy, &perClient[i]), dial, scfg, &perClient[i])
		d.sessions[i].OnFired = func(ids []uint64) {
			for _, id := range ids {
				d.triggers = append(d.triggers, Trigger{User: user, Alarm: id, Tick: d.tick})
			}
		}
	}

	for d.tick = 0; d.tick < tr.ticks+plan.DrainTicks; d.tick++ {
		if err := d.runTick(); err != nil {
			return nil, err
		}
	}
	if err := d.checkSettled(); err != nil {
		return nil, err
	}

	if d.cl == nil {
		return tr.report(sc.Strategy, d.eng.Metrics().Snapshot(), perClient, d.triggers, d.serverWall), nil
	}
	// Sum the per-shard counters. A crashed shard's cumulative counters
	// reset with its recovery — the totals reflect each shard's final
	// incarnation, and a retired shard's is gone with its engine.
	var met metrics.Snapshot
	for s := 0; s < d.cl.N(); s++ {
		if eng := d.cl.Engine(s); eng != nil {
			addSnapshot(&met, eng.Metrics().Snapshot())
		}
	}
	rep := tr.report(sc.Strategy, met, perClient, d.triggers, d.serverWall)
	clusterMet := d.cl.Metrics().Snapshot()
	rep.Cluster = &clusterMet
	rep.PartitionMap = d.cl.PartitionMap()
	rep.PartitionEpoch = rep.PartitionMap.Epoch()
	return rep, nil
}

// boot brings the server side up: first start, process recovery, or a
// cluster reopen after a crash point. A durable boot rebuilds whatever
// survived in dataDir; cumulative counters restart with each incarnation.
func (d *driver) boot() error {
	opts := store.Options{Fsync: d.plan.Fsync, SnapshotEvery: d.plan.SnapshotEvery}
	if d.plan.Shards != 0 {
		cl, err := cluster.New(cluster.Config{
			Shards:       d.plan.Shards,
			Engine:       d.engCfg,
			DataDir:      d.dataDir,
			Store:        opts,
			Replicas:     d.plan.Replicas,
			PromoteAfter: d.plan.PromoteAfter,
			ReplAck:      d.plan.ReplAck,
		})
		if err != nil {
			return err
		}
		// A fresh router rebuilds its routes from traffic.
		d.cl, d.be = cl, routerBackend{cluster.NewRouter(cl)}
		return nil
	}
	var eng *server.Engine
	var err error
	if len(d.plan.Crashes) > 0 {
		st, state, info, oerr := store.Open(d.dataDir, opts)
		if oerr != nil {
			return oerr
		}
		eng, err = server.NewDurable(d.engCfg, st, state, info)
	} else {
		eng, err = server.New(d.engCfg)
	}
	if err != nil {
		return err
	}
	// Server-initiated messages (moving-target invalidations, partner
	// wake-ups) travel the faulty downlink like every reply.
	eng.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
		idx := int(user) - 1
		if idx < 0 || idx >= len(d.links) || d.links[idx] == nil {
			return
		}
		for _, m := range msgs {
			if d.links[idx].srv.Send(m) != nil {
				return
			}
		}
	})
	d.eng, d.be = eng, engineBackend{eng}
	return nil
}

func (d *driver) close() {
	switch {
	case d.cl != nil:
		d.cl.Close()
	case d.eng != nil && d.eng.Store() != nil:
		d.eng.Store().Close()
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
	var err error
	switch {
	case d.cl != nil:
		err = d.cl.SetTick(uint64(tick))
	case d.eng != nil:
		err = d.eng.SetTick(uint64(tick))
	}
	if err != nil {
		return fmt.Errorf("sim: set tick %d: %w", tick, err)
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

	// The server drains each link in index order and replies down the
	// same link; responses reach the session next tick.
	for i, ln := range d.links {
		if ln == nil {
			continue
		}
		if err := d.serve(ln); err != nil {
			if errors.Is(err, transport.ErrClosed) {
				d.links[i] = nil
				continue
			}
			return fmt.Errorf("tick %d user %d: %w", tick, ln.user, err)
		}
	}

	// The replication clock beats once per tick — live primaries pump
	// their follower streams, silent ones are deposed and failed over —
	// and any drain interrupted by a kill resumes as soon as a promotion
	// has both of its shards serving again.
	if d.plan.Replicas > 0 {
		d.cl.TickReplication(tick)
		if err := d.cl.ResumeDrains(); err != nil {
			return fmt.Errorf("sim: resume drains at tick %d: %w", tick, err)
		}
	}
	return nil
}

// processEvents kills and recovers the single durable engine. A scripted
// crash kills the store, mangles the WAL tail and severs every
// connection; after the downtime the engine is rebuilt from whatever
// survived on disk, resume tokens included, so reconnecting sessions
// resume rather than re-enroll.
func (d *driver) processEvents() error {
	if d.eng != nil && d.crashes < len(d.plan.Crashes) && d.tick >= d.plan.Crashes[d.crashes].Tick {
		ev := d.plan.Crashes[d.crashes]
		d.crashes++
		walPath := d.eng.Store().WALPath()
		d.eng.Store().Kill()
		if err := store.MangleTail(walPath, ev.Tear, d.rng); err != nil {
			return fmt.Errorf("sim: crash %d mangle: %w", d.crashes, err)
		}
		for i, ln := range d.links {
			if ln != nil {
				ln.cli.Close()
				d.links[i] = nil
			}
		}
		d.eng, d.be = nil, nil
		d.downUntil = d.tick + ev.Down
	}
	if d.be == nil && d.tick >= d.downUntil {
		if err := d.boot(); err != nil {
			return fmt.Errorf("sim: recovery at tick %d: %w", d.tick, err)
		}
	}
	return nil
}

// shardEvents fires the cluster sections of the plan. Client links stay
// up through all of them: the router front end is always reachable, and
// a dead shard shows up as unanswered reports, not failed dials.
func (d *driver) shardEvents() error {
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
	// point, after which the cluster reopens from its data dir (resuming
	// any committed drain).
	for ; d.repartitions < len(p.Repartitions) && tick >= p.Repartitions[d.repartitions].Tick; d.repartitions++ {
		ev := p.Repartitions[d.repartitions]
		if ev.CrashPoint != "" {
			d.cl.SetCrashPoint(ev.CrashPoint)
		}
		var err error
		switch ev.Op {
		case "split":
			_, err = d.cl.SplitShard(ev.Shard)
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
		d.cl.Crash()
		if err := d.boot(); err != nil {
			return fmt.Errorf("sim: reopen after crash point %q: %w", ev.CrashPoint, err)
		}
		// The reopen rebooted every shard, including any the crash
		// schedule still had down; their pending recoveries are moot.
		d.shardDownUntil = make(map[int]int)
	}
	return nil
}

// serve drains one link's pending uplink messages and replies. It
// returns transport.ErrClosed when the link died underneath it; the
// session replays on reconnect.
func (d *driver) serve(ln *link) error {
	for {
		m, ok, err := ln.srv.TryRecv()
		if err != nil {
			return transport.ErrClosed
		}
		if !ok {
			return nil
		}
		var out []wire.Message
		switch v := m.(type) {
		case wire.Hello:
			out, err = d.be.HandleHello(v)
		case wire.Heartbeat:
			out = d.be.HandleHeartbeat(ln.user, v)
		case wire.FiredAck:
			err = d.be.HandleAck(ln.user, v.Alarms)
		case wire.PositionUpdate:
			start := time.Now()
			out, err = d.be.HandleUpdate(v)
			d.serverWall += time.Since(start)
			if len(out) == 0 {
				out = []wire.Message{wire.Ack{Seq: v.Seq}}
			}
		case wire.UpdateBatch:
			start := time.Now()
			var br wire.BatchReply
			br, err = d.be.HandleUpdateBatch(v)
			d.serverWall += time.Since(start)
			out = []wire.Message{br}
		default:
			return fmt.Errorf("sim: unexpected uplink message %v", m.Kind())
		}
		if err != nil {
			// Owning shard down (or a handoff blocked on it): no reply, and
			// the session's resend machinery retries after recovery.
			if _, down := cluster.IsShardDown(err); down {
				continue
			}
			return err
		}
		for _, r := range out {
			if ln.srv.Send(r) != nil {
				return transport.ErrClosed
			}
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
	if d.be == nil {
		return fmt.Errorf("sim: server still down at trace end — its Down outlives the run")
	}
	if d.cl != nil {
		// Every shard live under the final map must be serving; retired IDs
		// (merged away mid-run) legitimately have no engine.
		for _, s := range d.cl.PartitionMap().Shards() {
			if !d.cl.Up(s) {
				return fmt.Errorf("sim: shard %d still down at trace end — its Down outlives the run, or no follower was promotable", s)
			}
		}
	}
	return nil
}

// addSnapshot folds one shard's counters into dst: every uint64 field is
// a counter and sums; the cost parameters are shared by all shards.
func addSnapshot(dst *metrics.Snapshot, sn metrics.Snapshot) {
	dst.Costs = sn.Costs
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(sn)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}

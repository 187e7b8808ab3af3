package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"

	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/stats"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// connections is the number of gateway connections and sender goroutines
// of the load generator: one per core of the 2-core box, never more. Each
// multiplexes half the fleet (the server keys every report by its User
// field); on the cluster workload each is the connection to one shard.
const connections = 2

// child is the system under test running as a separate process, with the
// control pipe to it.
type child struct {
	cmd        *exec.Cmd
	stdin      io.WriteCloser
	enc        *json.Encoder
	dec        *json.Decoder
	addrs      []string
	gomaxprocs int
}

// startChild re-executes this binary as `serve` and boots the stack.
func startChild(ctx context.Context, argv []string, place placement, cfg stackConfig) (*child, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := place.startPinned(cmd); err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}
	c := &child{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}
	resp, err := c.call(ctlReq{Op: "boot", Boot: &cfg})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.addrs, c.gomaxprocs = resp.Addrs, resp.GOMAXPROCS
	return c, nil
}

func (c *child) call(req ctlReq) (ctlResp, error) {
	var resp ctlResp
	if err := c.enc.Encode(req); err != nil {
		return resp, fmt.Errorf("child %s: %w", req.Op, err)
	}
	if err := c.dec.Decode(&resp); err != nil {
		return resp, fmt.Errorf("child %s: %w", req.Op, err)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("child %s: %s", req.Op, resp.Err)
	}
	return resp, nil
}

func (c *child) snapshot() (*childSnapshot, error) {
	resp, err := c.call(ctlReq{Op: "snapshot"})
	if err != nil {
		return nil, err
	}
	return resp.Snap, nil
}

// stop asks the child to quit, closes its stdin (which alone makes it
// exit) and reaps it; a child that will not go is killed.
func (c *child) stop() {
	c.enc.Encode(ctlReq{Op: "quit"})
	c.stdin.Close()
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// vehicle is one simulated client and the connection it currently
// reports on.
type vehicle struct {
	cl   *client.Client
	met  metrics.Client
	home int
}

// pending is a report a shard answered with a Redirect: it is resent on
// the owning shard's connection in the second phase of the same tick.
type pending struct {
	vehicle int
	upd     wire.PositionUpdate
	hop1    float64 // ns spent on the first hop
}

// deliveredEvent is one event id carried by an AlarmFired frame.
type deliveredEvent struct {
	user  uint64
	event uint64
	tick  int
}

// streamRec is one report as sent, kept (traced runs only) so the
// in-process replay and the store replay see the run's own inputs.
type streamRec struct {
	tick   int
	phase  int
	sender int
	upd    wire.PositionUpdate
	fired  []uint64 // events its reply delivered
	// redirected marks a first hop answered by a Redirect; resend marks
	// the second hop of the same report.
	redirected, resend bool
}

// window accumulates what one sender saw during the measured ticks.
type window struct {
	lat        []float64 // report→reply, ns, one sample per report
	handoffLat []float64 // both hops of redirected reports, ns
	reports    uint64
	failed     uint64 // no, malformed or mis-sequenced reply
	frames     uint64 // request frames answered: the distinct latencies
	downBytes  uint64
	rects      uint64 // RectRegion replies
	rectKM2    float64
	bitmaps    uint64 // BitmapRegion replies
	bitmapBits uint64
}

type sender struct {
	id   int
	d    *deployment
	conn transport.Conn
	cmd  chan int
	err  error

	batch      []wire.PositionUpdate
	batchVeh   []int
	msgs       []wire.Message
	redirected []pending
	inbox      []pending

	win    window
	events []deliveredEvent
	stream []streamRec
}

// deployment is one set-up system: generated inputs, the child serving
// them, the connected gateways and the oracle, advanced tick by tick.
type deployment struct {
	in       *inputs
	child    *child
	dataDir  string
	senders  []*sender
	vehicles []vehicle
	pos      []geom.Point
	oracle   *oracle
	tick     int
	measured bool
	record   bool
	done     chan struct{}
}

// deploy runs the whole set-up: generate the workload from the seed,
// boot the child, install the alarms, connect, enrol every vehicle and
// run the warm-up ticks.
func deploy(ctx context.Context, o runOpts) (*deployment, error) {
	in, err := generate(o.spec, o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := in.stack
	if cfg.DataDir, err = newDataDir(o.tmpRoot, cfg.Mode); err != nil {
		return nil, err
	}
	ch, err := startChild(ctx, o.childArgv, o.place, cfg)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, err
	}
	d := &deployment{
		in:       in,
		child:    ch,
		dataDir:  cfg.DataDir,
		vehicles: make([]vehicle, in.vehicles),
		pos:      make([]geom.Point, in.vehicles),
		record:   o.trace,
		done:     make(chan struct{}),
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	resp, err := ch.call(ctlReq{Op: "install", Alarms: in.alarms})
	if err != nil {
		return fail(err)
	}
	if len(resp.IDs) != len(in.alarms) {
		return fail(fmt.Errorf("install: %d ids for %d alarms", len(resp.IDs), len(in.alarms)))
	}
	for i, id := range resp.IDs {
		in.alarms[i].ID = id
	}
	d.oracle = newOracle(in.alarms, in.vehicles, in.stack.Universe)
	for i := range d.vehicles {
		v := &d.vehicles[i]
		v.cl = client.New(userOf(i), in.spec.strategy, &v.met)
		// On the cluster the first report of a vehicle enrolled at the
		// wrong shard is redirected like any other, during warm-up.
		v.home = i % connections
	}
	for i := 0; i < connections; i++ {
		conn, err := transport.Dial(ch.addrs[i%len(ch.addrs)])
		if err != nil {
			return fail(err)
		}
		s := &sender{id: i, d: d, conn: conn, cmd: make(chan int)}
		d.senders = append(d.senders, s)
		go s.loop()
	}
	d.phase(phaseEnrol)
	for d.tick < warmupTicks {
		if _, err := d.runTick(ctx); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

// close stops the senders, closes the connections, reaps the child and
// removes its data directory.
func (d *deployment) close() {
	for _, s := range d.senders {
		close(s.cmd)
		s.conn.Close()
	}
	d.senders = nil
	d.child.stop()
	os.RemoveAll(d.dataDir)
}

const (
	phaseEnrol  = iota // Register every vehicle on its connection
	phaseReport        // walk the fleet, send the reports that are due
	phaseResend        // resend redirected reports at their new shard
)

// phase runs one phase on every sender and returns how long it took from
// dispatch to the last sender finishing (the barrier).
func (d *deployment) phase(p int) time.Duration {
	start := time.Now()
	for _, s := range d.senders {
		s.cmd <- p
	}
	for range d.senders {
		<-d.done
	}
	return time.Since(start)
}

// runTick advances the traces one tick and lets every vehicle act on its
// new position. It returns the wall time of the sender phases alone:
// stepping the traces, ticking the child's clock and the oracle are the
// load generator's own work and are not charged to the system.
func (d *deployment) runTick(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	d.in.mob.Step()
	d.in.mob.Positions(d.pos)
	if _, err := d.child.call(ctlReq{Op: "tick", Tick: uint64(d.tick)}); err != nil {
		return 0, err
	}
	d.oracle.step(d.tick, d.pos)
	wall := d.phase(phaseReport)
	// Hand redirected reports to the sender holding the other shard's
	// connection. Homes change only here, between phases, so the senders
	// read them without synchronisation.
	resend := false
	for _, s := range d.senders {
		for _, p := range s.redirected {
			to := d.senders[(s.id+1)%connections]
			d.vehicles[p.vehicle].home = to.id
			to.inbox = append(to.inbox, p)
			resend = true
		}
		s.redirected = s.redirected[:0]
	}
	if resend {
		wall += d.phase(phaseResend)
	}
	for _, s := range d.senders {
		if s.err != nil {
			// An interrupt kills the child; say so rather than "reset by peer".
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("tick %d sender %d: %w", d.tick, s.id, s.err)
		}
	}
	d.tick++
	return wall, nil
}

func (s *sender) loop() {
	for p := range s.cmd {
		if s.err == nil {
			s.run(p)
		}
		s.d.done <- struct{}{}
	}
}

func (s *sender) run(p int) {
	d := s.d
	switch p {
	case phaseEnrol:
		for i := range d.vehicles {
			if d.vehicles[i].home != s.id {
				continue
			}
			if err := s.conn.Send(wire.Register{User: userOf(i), Strategy: d.in.spec.strategy, MaxHeight: pyramidHeight}); err != nil {
				s.err = err
				return
			}
		}
	case phaseReport:
		for i := range d.vehicles {
			v := &d.vehicles[i]
			if v.home != s.id {
				continue
			}
			upd := v.cl.Tick(d.tick, d.pos[i])
			if upd == nil {
				continue
			}
			if d.in.spec.batch {
				s.batch = append(s.batch, *upd)
				s.batchVeh = append(s.batchVeh, i)
				continue
			}
			s.roundTrip(i, *upd, 0)
			if s.err != nil {
				return
			}
		}
		if len(s.batch) > 0 {
			s.batchRoundTrip()
			s.batch, s.batchVeh = s.batch[:0], s.batchVeh[:0]
		}
	case phaseResend:
		for _, p := range s.inbox {
			s.roundTrip(p.vehicle, p.upd, p.hop1)
			if s.err != nil {
				return
			}
		}
		s.inbox = s.inbox[:0]
	}
}

// roundTrip sends one report and reads its reply: any AlarmFired first,
// then exactly one monitoring-state message (or a Redirect). One report
// is outstanding per connection, as one is per vehicle.
func (s *sender) roundTrip(veh int, upd wire.PositionUpdate, hop1 float64) {
	start := time.Now()
	if err := s.conn.Send(upd); err != nil {
		s.err = err
		return
	}
	s.msgs = s.msgs[:0]
	for {
		m, err := s.conn.Recv()
		if err != nil {
			s.err = err
			return
		}
		s.msgs = append(s.msgs, m)
		if _, more := m.(wire.AlarmFired); !more {
			break
		}
	}
	lat := float64(time.Since(start)) + hop1
	if s.d.measured {
		s.win.frames++
		for _, m := range s.msgs {
			s.win.downBytes += uint64(wire.EncodedSize(m))
		}
	}
	if _, ok := s.msgs[len(s.msgs)-1].(wire.Redirect); ok && hop1 == 0 {
		s.redirected = append(s.redirected, pending{vehicle: veh, upd: upd, hop1: lat})
		s.log(streamRec{upd: upd, redirected: true})
		return
	}
	fired, ok := s.apply(veh, upd, s.msgs)
	s.log(streamRec{upd: upd, fired: fired, resend: hop1 > 0})
	if s.d.measured {
		s.win.reports++
		s.win.lat = append(s.win.lat, lat)
		if hop1 > 0 {
			s.win.handoffLat = append(s.win.handoffLat, lat)
		}
		if !ok {
			s.win.failed++
		}
	}
}

// batchRoundTrip ships the tick's due reports as one UpdateBatch; every
// report in it takes the frame's round-trip time.
func (s *sender) batchRoundTrip() {
	start := time.Now()
	if err := s.conn.Send(wire.UpdateBatch{Updates: s.batch}); err != nil {
		s.err = err
		return
	}
	m, err := s.conn.Recv()
	if err != nil {
		s.err = err
		return
	}
	lat := float64(time.Since(start))
	br, isReply := m.(wire.BatchReply)
	if s.d.measured {
		s.win.frames++
		s.win.downBytes += uint64(wire.EncodedSize(m))
	}
	for k, upd := range s.batch {
		var fired []uint64
		ok := isReply && k < len(br.Entries) && br.Entries[k].User == upd.User
		if ok {
			fired, ok = s.apply(s.batchVeh[k], upd, br.Entries[k].Msgs)
		}
		s.log(streamRec{upd: upd, fired: fired})
		if s.d.measured {
			s.win.reports++
			s.win.lat = append(s.win.lat, lat)
			if !ok {
				s.win.failed++
			}
		}
	}
}

// apply hands a report's reply messages to its client and counts them.
// It returns the events they delivered and whether the reply was
// well-formed: every message decodes into client state, and the last one
// is monitoring state carrying the report's sequence number.
func (s *sender) apply(veh int, upd wire.PositionUpdate, msgs []wire.Message) (fired []uint64, ok bool) {
	d := s.d
	ok = len(msgs) > 0
	for _, m := range msgs {
		switch v := m.(type) {
		case wire.AlarmFired:
			fired = append(fired, v.Alarms...)
			for _, ev := range v.Alarms {
				s.events = append(s.events, deliveredEvent{upd.User, ev, d.tick})
			}
		case wire.RectRegion:
			if d.measured {
				s.win.rects++
				s.win.rectKM2 += v.Rect.Area() / 1e6
			}
		case wire.BitmapRegion:
			if d.measured {
				s.win.bitmaps++
				s.win.bitmapBits += uint64(v.NBits)
			}
		}
		if err := d.vehicles[veh].cl.Handle(d.tick, m); err != nil {
			ok = false
		}
	}
	if ok {
		last := msgs[len(msgs)-1]
		seq, has := wire.SeqOf(last)
		_, isFired := last.(wire.AlarmFired)
		ok = has && !isFired && seq == upd.Seq
	}
	return fired, ok
}

func (s *sender) log(r streamRec) {
	if !s.d.record {
		return
	}
	r.tick, r.sender = s.d.tick, s.id
	if r.resend {
		r.phase = 1
	}
	s.stream = append(s.stream, r)
}

// runOpts selects one run.
type runOpts struct {
	spec    spec
	scale   scale
	seed    int64
	seconds int
	// trace records the report stream and follows the socket run with
	// the in-process traced replay that yields the per-layer metrics.
	trace bool
	// childArgv is the command that re-executes this binary as the child,
	// and place the CPU it is started on.
	childArgv []string
	place     placement
	// tmpRoot holds every data directory of the run; the caller removes it.
	tmpRoot  string
	traceOut string
	// withhold drops that many delivered events before the oracle
	// comparison — only the test that proves the gate is live sets it.
	withhold int
}

// segment is the child's state at one boundary of the measured window.
type segment struct {
	wall    time.Duration // cumulative sender-phase time
	ticks   int
	reports uint64
	cpu     int64
	latIdx  [connections]int
}

// runOne sets up (scale.setupRounds times, for a median), measures
// ticksFor(...) ticks, compares the delivered events with the oracle and,
// if asked, runs the traced replay.
func runOne(ctx context.Context, o runOpts) (*result, error) {
	var setups []float64
	var d *deployment
	rounds := o.scale.setupRounds
	if o.trace {
		rounds = 1 // a traced run reports no setup_s
	}
	for r := 0; r < rounds; r++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = deploy(ctx, o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()

	ticks := ticksFor(o.spec, o.scale, o.seconds)
	perSeg := ticks / o.scale.segments
	expectReports := ticks * d.in.vehicles / 8
	for _, s := range d.senders {
		s.win.lat = make([]float64, 0, expectReports)
	}
	var clientBefore metrics.Client
	for i := range d.vehicles {
		clientBefore.Merge(d.vehicles[i].met)
	}
	before, err := d.child.snapshot()
	if err != nil {
		return nil, err
	}
	mark := func(wall time.Duration, ticksDone int, sn *childSnapshot) segment {
		sg := segment{wall: wall, ticks: ticksDone, cpu: sn.CPUMicro}
		for i, s := range d.senders {
			sg.reports += s.win.reports
			sg.latIdx[i] = len(s.win.lat)
		}
		return sg
	}
	marks := []segment{mark(0, 0, before)}
	d.measured = true
	var wall time.Duration
	after := before
	for t := 1; t <= ticks; t++ {
		w, err := d.runTick(ctx)
		if err != nil {
			return nil, err
		}
		wall += w
		if (t%perSeg == 0 && len(marks) < o.scale.segments) || t == ticks {
			if after, err = d.child.snapshot(); err != nil {
				return nil, err
			}
			marks = append(marks, mark(wall, t, after))
		}
	}
	d.measured = false

	res := newResult(o, d, ticks)
	res.setups = setups
	res.collect(d, marks, before, after, clientBefore)
	// The peak is read as late as possible: at quit.
	final, err := d.child.snapshot()
	if err != nil {
		return nil, err
	}
	res.rssMB = float64(final.PeakRSSKB) / 1024
	res.judge(d, o.withhold)
	res.endToEnd()
	if o.trace {
		if err := res.tracedRun(ctx, o, d); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// mergeEvents folds every sender's delivered events into first-delivery
// ticks and counts repeats.
func mergeEvents(senders []*sender) (map[eventKey]int, int) {
	first := make(map[eventKey]int)
	dups := 0
	for _, s := range senders {
		for _, e := range s.events {
			k := eventKey{e.user, e.event}
			if t, seen := first[k]; seen {
				dups++
				if e.tick < t {
					first[k] = e.tick
				}
				continue
			}
			first[k] = e.tick
		}
	}
	return first, dups
}

// mergedStream is every sender's report stream in the order the run
// issued it: by tick, first hops before resends, sender 0 before 1.
func mergedStream(senders []*sender) []streamRec {
	var all []streamRec
	for _, s := range senders {
		all = append(all, s.stream...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.tick != b.tick {
			return a.tick < b.tick
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		return a.sender < b.sender
	})
	return all
}

// percentile is stats.Percentile of an unsorted sample, and 0 — not NaN
// — when nothing was sampled: a layer a workload does not use reads 0.
func percentile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	return stats.Percentile(sorted, q)
}

func median(sample []float64) float64 { return percentile(sample, 0.5) }

// mean is the arithmetic mean, 0 when nothing was sampled.
func mean(sample []float64) float64 {
	var t float64
	for _, v := range sample {
		t += v
	}
	return ratio(t, float64(len(sample)))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var errGate = errors.New("correctness gate failed")

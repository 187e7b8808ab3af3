package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/grid"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// The traced run. The system has no spans of its own yet, so every layer
// is timed from outside, through its public functions: the run's recorded
// report stream is replayed single-threaded through an identically
// configured in-process stack, with a span around each call the socket
// path makes (frame write/read through memory, HandleUpdate, client
// Handle) and around "shadow" calls — the read-only layer entry points
// invoked on the same inputs right next to the real call, whose time
// would otherwise be hidden inside HandleUpdate.

type spanName uint8

const (
	spReport       spanName = iota // root: one report (or one batch)
	spWriteFrame                   // transport.WriteFrame into memory
	spReadFrame                    // transport.ReadFrame from memory
	spEncodeUpdate                 // shadow of spWriteFrame: wire.AppendEncode
	spDecodeUpdate                 // shadow of spReadFrame: wire.Decode
	spEncodeReply
	spDecodeReply
	spLocate       // PartitionMap.Locate
	spExportImport // ExportSession + ImportSession
	spHandle       // Engine.HandleUpdate / HandleUpdateBatch
	spEvaluate     // shadow of spHandle: Registry.EvaluateInto
	spRelevantIn   // shadow of spHandle: Registry.RelevantInInto
	spRect         // shadow of spHandle: saferegion.ComputeRectScratch
	spBitmap       // shadow of spHandle: saferegion.ComputeBitmap, cold
	spClientHandle // client.Client.Handle
	spPyramidDec   // shadow of spClientHandle: pyramid.Decode
	spSafeNow      // client.Client.SafeNow
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"report", "transport.write_frame", "transport.read_frame",
	"wire.encode_update", "wire.decode_update", "wire.encode_reply", "wire.decode_reply",
	"cluster.locate", "server.export_import", "server.handle",
	"alarm.evaluate", "alarm.relevant_in", "saferegion.rect", "pyramid.compute_bitmap",
	"client.handle_reply", "pyramid.decode", "client.safenow",
}

// span is one timed call. parent indexes the span that caused it (-1 for
// a root); req identifies the request: user<<32 | seq.
type span struct {
	name       spanName
	parent     int32
	req        uint64
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in a preallocated buffer; turned off it costs one
// branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name spanName, parent int32, req uint64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = int64(time.Since(t.t0))
	}
}

// adopt sets the parent of a shadow span that had to run before the call
// it shadows.
func (t *tracer) adopt(id, parent int32) {
	if id >= 0 {
		t.spans[id].parent = parent
	}
}

// spanStats aggregates the spans of one name. self is the total minus
// the time of their child spans.
type spanStats struct {
	n           int
	total, self int64
	durs        []float64
}

func (s spanStats) mean() float64 { return ratio(float64(s.total), float64(s.n)) }

func (t *tracer) aggregate() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	for _, sp := range t.spans {
		d := sp.end - sp.start
		st := &out[sp.name]
		st.n++
		st.total += d
		st.self += d
		st.durs = append(st.durs, float64(d))
		if sp.parent >= 0 {
			out[t.spans[sp.parent].name].self -= d
		}
	}
	return out
}

func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,name,parent,request,start_ns,end_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanLabels[sp.name], sp.parent, sp.req, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayCap bounds the replayed prefix: the first quarter of the measured
// reports, but no more than this many, so the span buffer stays small.
const replayCap = 50000

// allocSampleEvery is how often a replayed report also has its heap
// allocations counted (runtime.ReadMemStats stops the world).
const allocSampleEvery = 64

// replayer feeds recorded reports through an in-process stack.
type replayer struct {
	sp      spec
	st      *stack
	dataDir string
	cfg     server.Config
	grid    *grid.Grid
	tr      *tracer

	clients  []*client.Client
	mets     []metrics.Client
	headings []motion.HeadingTracker
	home     []int // cluster: shard holding the vehicle's session

	// Scratch reused from frame to frame, so that the replay's own
	// allocations stay out of the timings.
	upds      []wire.PositionUpdate
	evals     []int32
	mem       bytes.Buffer
	enc       []byte
	triggered []alarm.ID
	raw       []uint64
	relevant  []alarm.Alarm
	rects     []geom.Rect
	rectSc    saferegion.RectScratch

	reports, frames      int
	firingFrames         int // timed frames whose handling logged firings: one WAL append each
	sampled              int
	handleAllocs, wireAl uint64
}

func newReplayer(o runOpts, in *inputs) (*replayer, error) {
	cfg := in.stack
	var err error
	if cfg.DataDir, err = newDataDir(o.tmpRoot, cfg.Mode); err != nil {
		return nil, err
	}
	st, err := buildStack(cfg)
	if err != nil {
		os.RemoveAll(cfg.DataDir)
		return nil, err
	}
	r := &replayer{sp: o.spec, st: st, dataDir: cfg.DataDir, tr: &tracer{}}
	fail := func(err error) (*replayer, error) {
		r.close()
		return nil, err
	}
	if r.cfg, err = engineConfig(cfg); err != nil {
		return fail(err)
	}
	if r.grid, err = grid.New(cfg.Universe, r.cfg.CellAreaM2); err != nil {
		return fail(err)
	}
	alarms := append([]alarm.Alarm(nil), in.alarms...)
	if _, err := st.install(alarms); err != nil {
		return fail(err)
	}
	n := in.vehicles
	r.clients = make([]*client.Client, n)
	r.mets = make([]metrics.Client, n)
	r.headings = make([]motion.HeadingTracker, n)
	r.home = make([]int, n)
	engines := st.engines()
	for i := range r.clients {
		r.clients[i] = client.New(userOf(i), o.spec.strategy, &r.mets[i])
		r.home[i] = i % len(engines)
		if err := engines[r.home[i]].Register(wire.Register{User: userOf(i), Strategy: o.spec.strategy, MaxHeight: pyramidHeight}); err != nil {
			return fail(err)
		}
	}
	return r, nil
}

func (r *replayer) close() {
	r.st.close()
	os.RemoveAll(r.dataDir)
}

// run replays the warm-up reports untimed and then the first limit
// measured reports, with spans on or off, and returns the wall time of
// the timed part.
func (r *replayer) run(ctx context.Context, stream []streamRec, limit int, spans bool) (time.Duration, error) {
	r.tr.spans = make([]span, 0, limit*18)
	tick := -1
	var start time.Time
	timed := false
	for i := 0; i < len(stream) && r.reports < limit; {
		rec := stream[i]
		if rec.tick != tick {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			tick = rec.tick
			if err := r.st.setTick(uint64(tick)); err != nil {
				return 0, err
			}
			if !timed && tick >= warmupTicks {
				timed = true
				r.tr.on, r.tr.t0 = spans, time.Now()
				start = time.Now()
			}
		}
		// One frame: a single report, or the run of reports one sender
		// batched in this tick. Second hops were handled with the first.
		j := i + 1
		if r.sp.batch {
			for j < len(stream) && stream[j].tick == rec.tick && stream[j].sender == rec.sender {
				j++
			}
		}
		frame := stream[i:j]
		i = j
		if rec.resend {
			continue
		}
		if err := r.frame(frame, timed); err != nil {
			return 0, err
		}
	}
	r.tr.on = false
	return time.Since(start), nil
}

func reqID(u wire.PositionUpdate) uint64 { return u.User<<32 | uint64(u.Seq) }

// frame replays one request frame and its reply the way the socket path
// handles them.
func (r *replayer) frame(recs []streamRec, timed bool) error {
	tr := r.tr
	tick := recs[0].tick
	upds := r.upds[:0]
	for _, rec := range recs {
		upd := *r.clients[int(rec.upd.User)-1].Report(tick, rec.upd.Pos)
		if upd != rec.upd {
			return fmt.Errorf("replay diverged at tick %d: report %+v, recorded %+v", tick, upd, rec.upd)
		}
		upds = append(upds, upd)
	}
	r.upds = upds
	var request wire.Message = upds[0]
	if r.sp.batch {
		request = wire.UpdateBatch{Updates: upds}
	}
	req := reqID(upds[0])
	sample := timed && r.frames%allocSampleEvery == 0
	if timed {
		r.frames++
	}
	root := tr.begin(spReport, -1, req)

	received, err := r.throughMemory(request, root, req, spEncodeUpdate, spDecodeUpdate)
	if err != nil {
		return err
	}
	if b, ok := received.(wire.UpdateBatch); ok {
		upds = b.Updates
	} else {
		upds[0] = received.(wire.PositionUpdate)
	}

	// Routing: the cluster locates the owner and, when the session lives
	// on the other shard, moves it before the update is handled.
	eng := r.st.eng
	if r.st.cl != nil {
		veh := int(upds[0].User) - 1
		sl := tr.begin(spLocate, root, req)
		owner, _ := r.st.cl.PartitionMap().Locate(upds[0].Pos)
		tr.end(sl)
		if owner != r.home[veh] {
			sx := tr.begin(spExportImport, root, req)
			srec, ok, err := r.st.cl.Engine(r.home[veh]).ExportSession(alarm.UserID(upds[0].User))
			if err == nil && ok {
				_, err = r.st.cl.Engine(owner).ImportSession(srec)
			}
			tr.end(sx)
			if err != nil {
				return err
			}
			r.home[veh] = owner
		}
		eng = r.st.cl.Engine(owner)
	}
	reg := eng.Registry()

	// Shadow: alarm evaluation on each position, before the real call
	// retires what it fires.
	evals := r.evals[:0]
	for _, u := range upds {
		ev := tr.begin(spEvaluate, -1, reqID(u))
		r.triggered, r.raw, _, _ = reg.EvaluateInto(u.Pos, alarm.UserID(u.User), r.triggered, r.raw)
		tr.end(ev)
		evals = append(evals, ev)
	}
	r.evals = evals

	var before runtime.MemStats
	if sample {
		runtime.ReadMemStats(&before)
	}
	var replies [][]wire.Message
	var reply wire.Message
	h := tr.begin(spHandle, root, req)
	if r.sp.batch {
		var br wire.BatchReply
		br, err = eng.HandleUpdateBatch(wire.UpdateBatch{Updates: upds})
		reply = br
		for _, e := range br.Entries {
			replies = append(replies, e.Msgs)
		}
	} else {
		var msgs []wire.Message
		msgs, err = eng.HandleUpdate(upds[0])
		if len(msgs) == 0 {
			msgs = []wire.Message{wire.Ack{Seq: upds[0].Seq}}
		}
		replies = [][]wire.Message{msgs}
	}
	tr.end(h)
	if err != nil {
		return err
	}
	if sample {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.handleAllocs += after.Mallocs - before.Mallocs
	}
	if len(replies) != len(upds) {
		return fmt.Errorf("replay: %d reply entries for %d updates", len(replies), len(upds))
	}
	for _, ev := range evals {
		tr.adopt(ev, h)
	}

	// Shadows: the region computations, after the real call so they see
	// the fired alarms retired as the real computation did.
	for k, u := range upds {
		r.shadowRegion(reg, u, replies[k], h)
	}

	// Reply frames back through memory, then into the client.
	if r.sp.batch {
		m, err := r.throughMemory(reply, root, req, spEncodeReply, spDecodeReply)
		if err != nil {
			return err
		}
		replies = replies[:0]
		for _, e := range m.(wire.BatchReply).Entries {
			replies = append(replies, e.Msgs)
		}
	} else {
		for k, m := range replies[0] {
			if replies[0][k], err = r.throughMemory(m, root, req, spEncodeReply, spDecodeReply); err != nil {
				return err
			}
		}
	}
	for k, u := range upds {
		cl := r.clients[int(u.User)-1]
		for _, m := range replies[k] {
			ch := tr.begin(spClientHandle, root, reqID(u))
			err := cl.Handle(tick, m)
			tr.end(ch)
			if err != nil {
				return err
			}
			if bm, ok := m.(wire.BitmapRegion); ok {
				pd := tr.begin(spPyramidDec, ch, reqID(u))
				_, err := pyramid.Decode(bm.Bitmap())
				tr.end(pd)
				if err != nil {
					return err
				}
			}
		}
		sn := tr.begin(spSafeNow, root, reqID(u))
		cl.SafeNow(tick, u.Pos)
		tr.end(sn)
	}
	tr.end(root)

	if sample {
		r.sampled += len(upds)
		runtime.ReadMemStats(&before)
		r.enc = wire.AppendEncode(r.enc[:0], request)
		if _, err := wire.Decode(r.enc); err != nil {
			return err
		}
		out := []wire.Message{reply}
		if !r.sp.batch {
			out = replies[0]
		}
		for _, m := range out {
			r.enc = wire.AppendEncode(r.enc[:0], m)
			if _, err := wire.Decode(r.enc); err != nil {
				return err
			}
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.wireAl += after.Mallocs - before.Mallocs
	}
	if timed {
		r.reports += len(upds)
		for _, msgs := range replies {
			if len(msgs) == 0 {
				continue
			}
			if _, ok := msgs[0].(wire.AlarmFired); ok {
				r.firingFrames++
				break
			}
		}
	}
	return nil
}

// throughMemory frames m into a buffer and reads it back, as the socket
// path does minus the socket, then shadows the two wire calls inside.
func (r *replayer) throughMemory(m wire.Message, root int32, req uint64, encName, decName spanName) (wire.Message, error) {
	tr := r.tr
	w := tr.begin(spWriteFrame, root, req)
	err := transport.WriteFrame(&r.mem, m)
	tr.end(w)
	if err != nil {
		return nil, err
	}
	rd := tr.begin(spReadFrame, root, req)
	got, err := transport.ReadFrame(&r.mem)
	tr.end(rd)
	if err != nil {
		return nil, err
	}
	e := tr.begin(encName, w, req)
	r.enc = wire.AppendEncode(r.enc[:0], m)
	tr.end(e)
	d := tr.begin(decName, rd, req)
	_, err = wire.Decode(r.enc)
	tr.end(d)
	return got, err
}

// shadowRegion repeats, on the inputs the engine used, the index search
// and the safe-region computation behind a reply. Lifecycle obstacle
// rewriting is private to the engine, so alarm regions stand in for it,
// and the bitmap is computed cold, without the public precompute: both
// make the shadow an estimate.
func (r *replayer) shadowRegion(reg *alarm.Registry, u wire.PositionUpdate, msgs []wire.Message, h int32) {
	tr := r.tr
	var rect, bitmap bool
	for _, m := range msgs {
		switch m.(type) {
		case wire.RectRegion:
			rect = true
		case wire.BitmapRegion:
			bitmap = true
		}
	}
	if !rect && !bitmap {
		return
	}
	req := reqID(u)
	cell := r.grid.CellRect(r.grid.Locate(u.Pos))
	ri := tr.begin(spRelevantIn, h, req)
	r.relevant, r.raw, _ = reg.RelevantInInto(cell, alarm.UserID(u.User), r.relevant[:0], r.raw)
	tr.end(ri)
	r.rects = r.rects[:0]
	for _, a := range r.relevant {
		r.rects = append(r.rects, a.Region)
	}
	if rect {
		model := r.cfg.Model
		heading, ok := r.headings[int(u.User)-1].Observe(u.Pos)
		if !ok {
			model = motion.Uniform()
		}
		rc := tr.begin(spRect, h, req)
		saferegion.ComputeRectScratch(u.Pos, cell, r.rects, saferegion.RectOptions{Model: model, Heading: heading}, &r.rectSc)
		tr.end(rc)
	}
	if bitmap {
		bc := tr.begin(spBitmap, h, req)
		saferegion.ComputeBitmap(cell, r.cfg.PyramidParams, r.rects, nil)
		tr.end(bc)
	}
}

// storeOp is one Append (a single record) or AppendBatch of the run.
type storeOp []store.Record

// storeOps rebuilds, from what the replies delivered, the records the
// engine logged during the measured ticks: a FiredRec (plus a
// TransitionRec per lifecycle event) for every report that fired — one
// group per batch frame on the batch workload — and an ExpireRec and a
// RegisterRec for every handoff.
func storeOps(sp spec, stream []streamRec) []storeOp {
	var ops []storeOp
	for i := 0; i < len(stream); {
		rec := stream[i]
		j := i + 1
		if sp.batch {
			for j < len(stream) && stream[j].tick == rec.tick && stream[j].sender == rec.sender {
				j++
			}
		}
		var op storeOp
		for _, rc := range stream[i:j] {
			if rc.tick < warmupTicks {
				continue
			}
			if rc.redirected {
				ops = append(ops,
					storeOp{store.ExpireRec{User: rc.upd.User}},
					storeOp{store.RegisterRec{User: rc.upd.User, Strategy: sp.strategy, MaxHeight: pyramidHeight}})
			}
			if len(rc.fired) == 0 {
				continue
			}
			op = append(op, store.FiredRec{User: rc.upd.User, Alarms: rc.fired})
			for _, ev := range rc.fired {
				if alarm.EventTransition(ev) != alarm.TransFired {
					op = append(op, store.TransitionRec{User: rc.upd.User, Event: ev, Tick: uint64(rc.tick), Delivered: true})
				}
			}
		}
		if len(op) > 0 {
			ops = append(ops, op)
		}
		i = j
	}
	return ops
}

// replayStore times the run's record stream against a fresh store with
// the deployment's options, and — when the deployment replicates — a
// follower log applied synchronously from the replication sink, as
// cluster.Replicator does in ack mode.
func replayStore(tmpRoot string, ops []storeOp, replica bool) (appends, applies []float64, err error) {
	dir, err := os.MkdirTemp(tmpRoot, "store-replay-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := store.Open(filepath.Join(dir, "primary"), storeOptions())
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	st.SetStateSource(func() *store.State { return &store.State{} })
	if replica {
		fl, err := store.OpenFollower(filepath.Join(dir, "follower"), storeOptions())
		if err != nil {
			return nil, nil, err
		}
		defer fl.Close()
		err = st.Bootstrap(func(snap store.ReplFrame) error {
			_, err := fl.Apply(snap)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		var applyErr error
		st.SetReplSink(func(frames []store.ReplFrame) {
			start := time.Now()
			if _, _, err := fl.ApplyBatch(frames); err != nil && applyErr == nil {
				applyErr = err
			}
			applies = append(applies, float64(time.Since(start)))
		})
		defer func() {
			if err == nil {
				err = applyErr
			}
		}()
	}
	for _, op := range ops {
		start := time.Now()
		if len(op) == 1 {
			err = st.Append(op[0])
		} else {
			err = st.AppendBatch(op)
		}
		if err != nil {
			return nil, nil, err
		}
		appends = append(appends, float64(time.Since(start)))
	}
	return appends, applies, nil
}

// loopbackEcho is the floor under every socket latency: a 29-byte
// PositionUpdate frame written to and read back from a bare echo server
// on loopback, no engine behind it.
func loopbackEcho(n int) (p50us float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	upd := wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(1, 1)}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := transport.WriteFrame(nc, upd); err != nil {
			return 0, err
		}
		if _, err := transport.ReadFrame(nc); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(start)))
	}
	return median(lat) / 1e3, nil
}

// layerDefs are the per-layer metrics, in the order they are printed.
// bench/README.md says which end-to-end metric each should move.
var layerDefs = []metricDef{
	{name: "wire.decode_update_ns", unit: "ns"},
	{name: "wire.encode_reply_ns", unit: "ns"},
	{name: "wire.decode_reply_ns", unit: "ns"},
	{name: "wire.allocs_per_roundtrip", unit: "count"},
	{name: "wire.reply_bytes_per_report", unit: "B"},
	{name: "transport.frame_roundtrip_ns", unit: "ns"},
	{name: "transport.loopback_echo_p50_us", unit: "us"},
	{name: "server.handle_update_p50_ns", unit: "ns"},
	{name: "server.handle_update_p99_ns", unit: "ns"},
	{name: "server.self_ns_per_report", unit: "ns"},
	{name: "server.allocs_per_update", unit: "count"},
	{name: "server.handle_batch_ns_per_update", unit: "ns"},
	{name: "server.batch_size_mean", unit: "count", higher: true},
	{name: "server.region_computations_per_report", unit: "ratio"},
	{name: "server.export_import_us", unit: "us"},
	{name: "alarm.evaluate_ns", unit: "ns"},
	{name: "alarm.relevant_in_ns", unit: "ns"},
	{name: "alarm.index_node_accesses_per_eval", unit: "count"},
	{name: "alarm.candidates_per_eval", unit: "count"},
	{name: "alarm.transitions_per_kreport", unit: "count"},
	{name: "saferegion.rect_ns", unit: "ns"},
	{name: "saferegion.rect_candidates_per_region", unit: "count"},
	{name: "saferegion.rect_clips_per_region", unit: "count"},
	{name: "saferegion.rect_area_km2_mean", unit: "km2", higher: true},
	{name: "pyramid.compute_bitmap_ns", unit: "ns"},
	{name: "pyramid.intersection_tests_per_region", unit: "count"},
	{name: "pyramid.bitmap_bits_mean", unit: "bit"},
	{name: "pyramid.decode_ns", unit: "ns"},
	{name: "pyramid.contains_probes_per_check", unit: "count"},
	{name: "client.safenow_ns", unit: "ns"},
	{name: "client.handle_reply_ns", unit: "ns"},
	{name: "store.append_p50_us", unit: "us"},
	{name: "store.append_p99_us", unit: "us"},
	{name: "store.sync_us_per_group", unit: "us"},
	{name: "store.group_records_mean", unit: "count", higher: true},
	{name: "store.fsyncs_per_kreport", unit: "count"},
	{name: "store.wal_bytes_per_report", unit: "B"},
	{name: "cluster.locate_ns", unit: "ns"},
	{name: "cluster.handoffs_per_kreport", unit: "count"},
	{name: "cluster.redirects_per_kreport", unit: "count"},
	{name: "cluster.handoff_rtt_p50_us", unit: "us"},
	{name: "cluster.repl_records_per_kreport", unit: "count"},
	{name: "cluster.repl_apply_us_per_batch", unit: "us"},
	{name: "cluster.duplicate_firings", unit: "count"},
	{name: "layers.sum_us_per_report", unit: "us"},
	{name: "unattributed_us_per_report", unit: "us"},
	{name: "trace.overhead_share", unit: "ratio"},
}

// tracedRun runs the replay twice (spans off, then on), the store replay and
// the echo floor, and fills in the per-layer metrics: timings from the
// spans, counts from the child's counters and the replies of the socket
// run's measured window.
func (r *result) tracedRun(ctx context.Context, o runOpts, d *deployment) error {
	stream := mergedStream(d.senders)
	limit := int(r.win.reports) / 4
	if limit > replayCap {
		limit = replayCap
	}
	if limit < 1 {
		limit = 1
	}
	var wall [2]time.Duration
	var rp *replayer
	for pass, spans := range []bool{false, true} {
		var err error
		if rp, err = newReplayer(o, d.in); err != nil {
			return err
		}
		wall[pass], err = rp.run(ctx, stream, limit, spans)
		rp.close()
		if err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		if err := rp.tr.writeTo(o.traceOut); err != nil {
			return err
		}
	}
	var appends, applies []float64
	if o.spec.mode != modeMemory {
		var err error
		appends, applies, err = replayStore(o.tmpRoot, storeOps(o.spec, stream), o.spec.mode == modeCluster)
		if err != nil {
			return err
		}
	}
	echo, err := loopbackEcho(2000)
	if err != nil {
		return err
	}

	agg := rp.tr.aggregate()
	n := float64(rp.reports)
	perReport := func(names ...spanName) float64 {
		var t int64
		for _, nm := range names {
			t += agg[nm].total
		}
		return ratio(float64(t), n)
	}
	reports := float64(r.win.reports)
	sv, cs := r.server, r.clus
	// The store's share of a handled report cannot be seen from outside
	// HandleUpdate; it is estimated as the replayed mean append time
	// times the replayed frames that logged firings.
	storePerReport := mean(appends) * ratio(float64(rp.firingFrames), n)
	handle := agg[spHandle]
	frames := perReport(spWriteFrame, spReadFrame)
	sum := frames + perReport(spHandle, spLocate, spExportImport)
	// A report's share of its frame's round trip: the whole of it
	// unbatched, 1/batch of it batched.
	meanLatUS := mean(r.lat) / 1e3 * ratio(float64(rp.frames), n)

	L := map[string]float64{
		"wire.decode_update_ns":                 perReport(spDecodeUpdate),
		"wire.encode_reply_ns":                  perReport(spEncodeReply),
		"wire.decode_reply_ns":                  perReport(spDecodeReply),
		"wire.allocs_per_roundtrip":             ratio(float64(rp.wireAl), float64(rp.sampled)),
		"wire.reply_bytes_per_report":           ratio(float64(r.win.downBytes), reports),
		"transport.frame_roundtrip_ns":          frames,
		"transport.loopback_echo_p50_us":        echo,
		"server.self_ns_per_report":             ratio(float64(handle.self), n) - storePerReport,
		"server.allocs_per_update":              ratio(float64(rp.handleAllocs), float64(rp.sampled)),
		"server.batch_size_mean":                ratio(float64(sv.BatchedUpdates), float64(sv.UpdateBatches)),
		"server.region_computations_per_report": ratio(float64(sv.SafeRegionComputations), reports),
		"server.export_import_us":               agg[spExportImport].mean() / 1e3,
		"alarm.evaluate_ns":                     agg[spEvaluate].mean(),
		"alarm.relevant_in_ns":                  agg[spRelevantIn].mean(),
		"alarm.index_node_accesses_per_eval":    ratio(float64(sv.NodeAccesses), float64(sv.AlarmEvaluations)),
		"alarm.candidates_per_eval":             ratio(float64(sv.AlarmChecks), float64(sv.AlarmEvaluations)),
		"alarm.transitions_per_kreport":         ratio(float64(sv.AlarmTransitions), reports) * 1000,
		"saferegion.rect_ns":                    agg[spRect].mean(),
		"saferegion.rect_candidates_per_region": ratio(float64(sv.SRCandidates), float64(r.win.rects)),
		"saferegion.rect_clips_per_region":      ratio(float64(sv.RectClips), float64(r.win.rects)),
		"saferegion.rect_area_km2_mean":         ratio(r.win.rectKM2, float64(r.win.rects)),
		"pyramid.compute_bitmap_ns":             agg[spBitmap].mean(),
		"pyramid.intersection_tests_per_region": ratio(float64(sv.SRBitmapTests), float64(r.win.bitmaps)),
		"pyramid.bitmap_bits_mean":              ratio(float64(r.win.bitmapBits), float64(r.win.bitmaps)),
		"pyramid.decode_ns":                     agg[spPyramidDec].mean(),
		"client.safenow_ns":                     agg[spSafeNow].mean(),
		"client.handle_reply_ns":                perReport(spClientHandle),
		"store.append_p50_us":                   median(appends) / 1e3,
		"store.append_p99_us":                   percentile(appends, 0.99) / 1e3,
		"store.sync_us_per_group":               ratio(float64(sv.WALSyncNs), float64(sv.WALGroupCommits)) / 1e3,
		"store.group_records_mean":              ratio(float64(sv.WALGroupRecords), float64(sv.WALGroupCommits)),
		"store.fsyncs_per_kreport":              ratio(float64(sv.WALFsyncs), reports) * 1000,
		"store.wal_bytes_per_report":            ratio(float64(sv.WALBytes), reports),
		"cluster.locate_ns":                     agg[spLocate].mean(),
		"cluster.handoffs_per_kreport":          ratio(float64(cs.Handoffs), reports) * 1000,
		"cluster.redirects_per_kreport":         ratio(float64(cs.RedirectsSent), reports) * 1000,
		"cluster.handoff_rtt_p50_us":            median(r.win.handoffLat) / 1e3,
		"cluster.repl_records_per_kreport":      ratio(float64(cs.ReplRecordsStreamed), reports) * 1000,
		"cluster.repl_apply_us_per_batch":       mean(applies) / 1e3,
		"cluster.duplicate_firings":             float64(r.verdict.Duplicate),
		"layers.sum_us_per_report":              sum / 1e3,
		"unattributed_us_per_report":            meanLatUS - sum/1e3,
		"trace.overhead_share":                  ratio(float64(wall[1]-wall[0]), float64(wall[0])),
	}
	// Layers a workload does not use read exactly 0.
	for _, d := range layerDefs {
		if _, ok := L[d.name]; !ok {
			L[d.name] = 0
		}
	}
	if o.spec.batch {
		L["server.handle_batch_ns_per_update"] = ratio(float64(handle.total), n)
	} else {
		L["server.handle_update_p50_ns"] = median(handle.durs)
		L["server.handle_update_p99_ns"] = percentile(handle.durs, 0.99)
	}
	if o.spec.strategy == wire.StrategyPBSR {
		L["pyramid.contains_probes_per_check"] = ratio(float64(r.client.Probes), float64(r.client.ContainmentChecks))
	}
	r.layers = L
	return nil
}

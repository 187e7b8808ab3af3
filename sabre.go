package sabre

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/wire"
)

// Geometry re-exports: all coordinates are metres in a Cartesian plane.
type (
	// Point is a location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (alarm regions, safe regions,
	// grid cells).
	Rect = geom.Rect
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectAround returns the square of the given side length centred on p —
// the usual shape of an alarm region around a target.
func RectAround(p Point, side float64) Rect { return geom.RectAround(p, side) }

// Alarm model re-exports.
type (
	// Alarm is one spatial alarm: scope, owner, subscribers and trigger
	// region.
	Alarm = alarm.Alarm
	// AlarmID identifies an installed alarm.
	AlarmID = alarm.ID
	// UserID identifies a mobile user.
	UserID = alarm.UserID
	// Scope is the publish–subscribe scope of an alarm.
	Scope = alarm.Scope
)

// Alarm scopes.
const (
	Private = alarm.Private
	Shared  = alarm.Shared
	Public  = alarm.Public
)

// Strategy selects how alarms are processed for a client.
type Strategy = wire.Strategy

// Processing strategies: the paper's two baselines (periodic and safe
// period), its two safe region approaches (rectangular and pyramid
// bitmap), and the OPT upper bound.
const (
	StrategyPeriodic   = wire.StrategyPeriodic
	StrategySafePeriod = wire.StrategySafePeriod
	StrategyMWPSR      = wire.StrategyMWPSR
	StrategyPBSR       = wire.StrategyPBSR
	StrategyOptimal    = wire.StrategyOptimal
)

// Message re-exports: the client/server protocol vocabulary.
type (
	// Message is any protocol message.
	Message = wire.Message
	// PositionUpdate is a client location report.
	PositionUpdate = wire.PositionUpdate
	// RectRegion carries an MWPSR safe region.
	RectRegion = wire.RectRegion
	// BitmapRegion carries a GBSR/PBSR safe region.
	BitmapRegion = wire.BitmapRegion
	// AlarmFired notifies a client of triggered alarms.
	AlarmFired = wire.AlarmFired
)

// MotionModel is the steady-motion probability density p(φ; y, z) of paper
// §3 used to weight MWPSR perimeters.
type MotionModel = motion.Model

// UniformMotion returns the no-assumption model (p = 1/2π); with it the
// service computes the paper's non-weighted rectangular safe regions.
func UniformMotion() MotionModel { return motion.Uniform() }

// SteadyMotion returns the model with steadiness parameters y and z
// (y/z < 1; the paper evaluates y=1 with z in {4, 16, 32}).
func SteadyMotion(y, z float64) (MotionModel, error) { return motion.New(y, z) }

// ServiceConfig configures an alarm processing service.
type ServiceConfig struct {
	// Universe is the region covered by the grid overlay. It must
	// strictly enclose every position clients will ever report.
	Universe Rect
	// CellAreaKM2 is the grid cell area in km²; 0 defaults to 2.5 (the
	// paper's optimum).
	CellAreaKM2 float64
	// Motion weights MWPSR safe regions; zero value = uniform
	// (non-weighted).
	Motion MotionModel
	// PyramidHeight is the PBSR pyramid height h (1 = GBSR); 0 defaults
	// to 5. Clients may register a lower per-device cap.
	PyramidHeight int
	// MaxSpeedMS is the maximum client speed in m/s (needed by the safe
	// period baseline); 0 defaults to 34 m/s (≈120 km/h).
	MaxSpeedMS float64
	// TickSeconds is the client position sampling interval; 0 defaults
	// to 1 s.
	TickSeconds float64
	// PrecomputePublicBitmaps enables the paper's §4.2 PBSR optimization.
	PrecomputePublicBitmaps bool
}

// Service is the server side of SABRE: it stores alarms, evaluates client
// position reports and computes safe regions. Safe for concurrent use.
type Service struct {
	eng *server.Engine
}

// NewService creates a Service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.CellAreaKM2 == 0 {
		cfg.CellAreaKM2 = 2.5
	}
	if cfg.MaxSpeedMS == 0 {
		cfg.MaxSpeedMS = 34
	}
	if cfg.TickSeconds == 0 {
		cfg.TickSeconds = 1
	}
	if cfg.PyramidHeight == 0 {
		cfg.PyramidHeight = 5
	}
	eng, err := server.New(server.Config{
		Universe:                cfg.Universe,
		CellAreaM2:              cfg.CellAreaKM2 * 1e6,
		Model:                   cfg.Motion,
		PyramidParams:           pyramid.DefaultParams(cfg.PyramidHeight),
		MaxSpeed:                cfg.MaxSpeedMS,
		TickSeconds:             cfg.TickSeconds,
		PrecomputePublicBitmaps: cfg.PrecomputePublicBitmaps,
	})
	if err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}
	return &Service{eng: eng}, nil
}

// InstallAlarmBatch installs a whole alarm table at once (bulk-loading the
// spatial index when the service is empty).
func (s *Service) InstallAlarmBatch(alarms []Alarm) ([]AlarmID, error) {
	return s.eng.InstallAlarms(alarms)
}

// InstallAlarm validates and stores an alarm, returning its ID.
func (s *Service) InstallAlarm(a Alarm) (AlarmID, error) {
	ids, err := s.eng.InstallAlarms([]Alarm{a})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// RemoveAlarm uninstalls an alarm; it reports whether the alarm existed.
func (s *Service) RemoveAlarm(id AlarmID) bool {
	// A memory-only engine logs nothing, so removal cannot fail.
	removed, _ := s.eng.RemoveAlarm(id)
	return removed
}

// Alarm returns a copy of an installed alarm.
func (s *Service) Alarm(id AlarmID) (Alarm, bool) { return s.eng.Registry().Get(id) }

// MoveTarget re-anchors every alarm whose Target is the given user to a
// new position (moving-target alarms) and returns the affected alarm IDs.
func (s *Service) MoveTarget(user UserID, pos Point) []AlarmID {
	var ids []AlarmID
	for _, m := range s.eng.MoveTarget(user, pos) {
		ids = append(ids, m.ID)
	}
	return ids
}

// SubscribeTopic subscribes a user to topic-scoped public alarms
// ("traffic information on highway 85 North"-style categories, paper §1).
// Public alarms with an empty Topic reach everyone regardless.
func (s *Service) SubscribeTopic(user UserID, topic string) {
	s.eng.Registry().SubscribeTopic(user, topic)
}

// UnsubscribeTopic removes a topic subscription.
func (s *Service) UnsubscribeTopic(user UserID, topic string) {
	s.eng.Registry().UnsubscribeTopic(user, topic)
}

// RegisterClient enrolls a client with its strategy. maxPyramidHeight caps
// PBSR resolution for weak devices; 0 means the service default.
func (s *Service) RegisterClient(user UserID, strategy Strategy, maxPyramidHeight int) error {
	return s.eng.Register(wire.Register{
		User:      uint64(user),
		Strategy:  strategy,
		MaxHeight: uint8(maxPyramidHeight),
	})
}

// HandleUpdate processes a client position report and returns the messages
// to deliver back to that client (fired-alarm notifications and fresh
// monitoring state).
func (s *Service) HandleUpdate(u PositionUpdate) ([]Message, error) {
	return s.eng.HandleUpdate(u)
}

// SetPushHandler installs the delivery callback for server-initiated
// messages: when a moving alarm target reports a new position, the service
// recomputes and pushes monitoring state (Seq 0) to every affected
// subscriber. The handler runs inside HandleUpdate and must not call back
// into the Service; hand the messages to each subscriber's Monitor.
// Without a handler, subscribers of moving-target alarms must poll
// frequently to observe target motion.
func (s *Service) SetPushHandler(h func(user UserID, msgs []Message)) {
	if h == nil {
		s.eng.SetPusher(nil)
		return
	}
	s.eng.SetPusher(func(user UserID, msgs []wire.Message) {
		out := make([]Message, len(msgs))
		for i, m := range msgs {
			out[i] = m
		}
		h(user, out)
	})
}

// Stats is a read-only snapshot of service counters.
type Stats struct {
	UplinkMessages   uint64
	UplinkBytes      uint64
	DownlinkMessages uint64
	DownlinkBytes    uint64
	AlarmsTriggered  uint64
	// AlarmProcessingSeconds and SafeRegionSeconds are the deterministic
	// cost-model buckets the paper plots as server load.
	AlarmProcessingSeconds float64
	SafeRegionSeconds      float64
}

// Stats returns current counters.
func (s *Service) Stats() Stats {
	m := s.eng.Metrics().Snapshot()
	return Stats{
		UplinkMessages:         m.UplinkMessages,
		UplinkBytes:            m.UplinkBytes,
		DownlinkMessages:       m.DownlinkMessages,
		DownlinkBytes:          m.DownlinkBytes,
		AlarmsTriggered:        m.AlarmsTriggered,
		AlarmProcessingSeconds: m.AlarmProcessingSeconds(),
		SafeRegionSeconds:      m.SafeRegionSeconds(),
	}
}

// Monitor is the client side: it watches a stream of positions against the
// monitoring state the service hands it, emitting a report exactly when
// required.
type Monitor struct {
	cli *client.Client
	met *metrics.Client
}

// NewMonitor creates a client monitor.
func NewMonitor(user UserID, strategy Strategy) *Monitor {
	met := &metrics.Client{}
	return &Monitor{cli: client.New(uint64(user), strategy, met), met: met}
}

// Tick advances the monitor to a tick/position; the returned report (nil
// when safe) must be forwarded to the service.
func (m *Monitor) Tick(tick int, pos Point) *PositionUpdate {
	return m.cli.Tick(tick, pos)
}

// Handle applies a service response received at the given tick.
func (m *Monitor) Handle(tick int, msg Message) error { return m.cli.Handle(tick, msg) }

// Acknowledge resumes monitoring when the service returned no messages
// (periodic clients).
func (m *Monitor) Acknowledge() { m.cli.Acknowledge() }

// Fired returns the alarm IDs delivered to this client, in order.
func (m *Monitor) Fired() []AlarmID {
	raw := m.cli.Fired()
	out := make([]AlarmID, len(raw))
	for i, v := range raw {
		out[i] = AlarmID(v)
	}
	return out
}

// EnergyMWh estimates the client's energy spend so far under the default
// energy model.
func (m *Monitor) EnergyMWh() float64 { return m.met.Energy(metrics.DefaultEnergy()) }

// MessagesSent returns the number of reports this monitor emitted.
func (m *Monitor) MessagesSent() uint64 { return m.met.MessagesSent }

// RectRegionOptions configures a direct safe region computation.
type RectRegionOptions struct {
	// Motion weights the perimeter; zero value = non-weighted.
	Motion MotionModel
	// Heading is the client heading in radians.
	Heading float64
}

// ComputeRectRegion exposes the MWPSR algorithm directly: it returns the
// maximum weighted perimeter rectangle around pos within cell that avoids
// every alarm region (paper §3).
func ComputeRectRegion(pos Point, cell Rect, alarms []Rect, opts RectRegionOptions) Rect {
	res := saferegion.ComputeRect(pos, cell, alarms, saferegion.RectOptions{
		Model:   opts.Motion,
		Heading: opts.Heading,
	})
	return res.Rect
}

// BitmapRegionResult is a decoded bitmap safe region plus its encoding
// size in bits.
type BitmapRegionResult struct {
	// Contains reports whether a point is inside the safe region.
	Contains func(Point) bool
	// Coverage is the safe fraction of the cell area (η in the paper).
	Coverage float64
	// SizeBits is the encoded bitmap size.
	SizeBits int
}

// ComputeBitmapRegion exposes the GBSR/PBSR algorithm directly: it encodes
// and decodes the pyramid bitmap safe region of cell against the alarm
// regions at the given height (height 1 = GBSR; the paper's figures use
// 3×3 splits).
func ComputeBitmapRegion(cell Rect, height int, alarms []Rect) (BitmapRegionResult, error) {
	res, err := saferegion.ComputeBitmap(cell, pyramid.DefaultParams(height), alarms, nil)
	if err != nil {
		return BitmapRegionResult{}, err
	}
	reg, err := pyramid.Decode(res.Bitmap)
	if err != nil {
		return BitmapRegionResult{}, err
	}
	return BitmapRegionResult{
		Contains: reg.Contains,
		Coverage: reg.Coverage(),
		SizeBits: res.Bitmap.SizeBits(),
	}, nil
}

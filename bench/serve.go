package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
)

// Deployment modes of the system under test.
const (
	modeMemory  = "memory"  // server.New behind server.NewTCPServerIdle
	modeDurable = "durable" // server.NewDurable (fsync on) behind the same listener
	modeCluster = "cluster" // cluster.New 2x1, fsync, 1 sync replica, behind cluster.NewTCP
)

// pyramidHeight is the PBSR height every workload registers with (the
// paper's comparison configuration, and cmd/alarmserver's default).
const pyramidHeight = 5

// stackConfig is everything the system under test is told about a
// workload. It never carries the seed: alarms arrive as data.
type stackConfig struct {
	Mode     string
	Universe geom.Rect
	MaxSpeed float64
	DataDir  string
}

// storeOptions are cmd/alarmserver's durable defaults (-fsync=true,
// -wal-group-max=0, -wal-group-wait=0) except for -snapshot-every, which
// is 0 here instead of 1024: with 4000 alarms one automatic checkpoint
// holds the append path for ~80 ms, and whether a slice of the measured
// window contained one made report_reply_p99_us read either 6 ms or
// 83 ms. README.md lists the unmeasured checkpoint stall as a known gap.
func storeOptions() store.Options {
	return store.Options{Fsync: true}
}

// engineConfig mirrors the server.Config cmd/alarmserver builds from its
// flag defaults; only the universe and the speed bound vary per workload.
func engineConfig(c stackConfig) (server.Config, error) {
	model, err := motion.New(1, 32)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Universe:                c.Universe,
		CellAreaM2:              2.5e6,
		Model:                   model,
		PyramidParams:           pyramid.Params{U: 3, V: 3, Height: pyramidHeight, MaxBits: 2048},
		MaxSpeed:                c.MaxSpeed,
		TickSeconds:             1,
		PrecomputePublicBitmaps: true,
		Costs:                   metrics.DefaultCosts(),
	}, nil
}

// stack is one booted deployment: a single engine or a cluster. The
// child process serves it over TCP; the traced replay calls it in-process.
type stack struct {
	eng *server.Engine
	cl  *cluster.Cluster
}

// buildStack boots a deployment using only the constructors
// cmd/alarmserver uses.
func buildStack(c stackConfig) (*stack, error) {
	cfg, err := engineConfig(c)
	if err != nil {
		return nil, err
	}
	switch c.Mode {
	case modeMemory:
		eng, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		return &stack{eng: eng}, nil
	case modeDurable:
		st, state, info, err := store.Open(c.DataDir, storeOptions())
		if err != nil {
			return nil, fmt.Errorf("open store %s: %w", c.DataDir, err)
		}
		eng, err := server.NewDurable(cfg, st, state, info)
		if err != nil {
			st.Close()
			return nil, err
		}
		return &stack{eng: eng}, nil
	case modeCluster:
		cl, err := cluster.New(cluster.Config{
			Cols: 2, Rows: 1,
			Engine:   cfg,
			DataDir:  c.DataDir,
			Store:    storeOptions(),
			Replicas: 1,
			ReplAck:  true,
		})
		if err != nil {
			return nil, err
		}
		return &stack{cl: cl}, nil
	default:
		return nil, fmt.Errorf("unknown mode %q", c.Mode)
	}
}

func (s *stack) install(alarms []alarm.Alarm) ([]alarm.ID, error) {
	if s.cl != nil {
		return s.cl.InstallAlarms(alarms)
	}
	return s.eng.InstallAlarms(alarms)
}

func (s *stack) setTick(tick uint64) error {
	if s.cl != nil {
		return s.cl.SetTick(tick)
	}
	return s.eng.SetTick(tick)
}

func (s *stack) engines() []*server.Engine {
	if s.cl == nil {
		return []*server.Engine{s.eng}
	}
	var out []*server.Engine
	for i := 0; i < s.cl.N(); i++ {
		if e := s.cl.Engine(i); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// counters sums the engine counters over every shard and adds the
// cluster router's.
func (s *stack) counters() (metrics.Snapshot, metrics.ClusterSnapshot) {
	var sum metrics.Snapshot
	for _, e := range s.engines() {
		addCounters(&sum, e.Metrics().Snapshot(), 1)
	}
	var cs metrics.ClusterSnapshot
	if s.cl != nil {
		cs = s.cl.Metrics().Snapshot()
	}
	return sum, cs
}

func (s *stack) close() error {
	if s.cl != nil {
		return s.cl.Close()
	}
	if st := s.eng.Store(); st != nil {
		return st.Close()
	}
	return nil
}

// addCounters adds sign*src to dst field by field; dst points to a struct
// whose counters are uint64 fields (metrics.Snapshot, ClusterSnapshot).
func addCounters(dst, src any, sign int) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if sign >= 0 {
			d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
		} else {
			d.Field(i).SetUint(d.Field(i).Uint() - s.Field(i).Uint())
		}
	}
}

// ctlReq and ctlResp are the driver↔child control protocol: one JSON
// object per line on the child's stdin and stdout.
type ctlReq struct {
	Op     string        `json:"op"` // boot | install | tick | snapshot | quit
	Boot   *stackConfig  `json:"boot,omitempty"`
	Alarms []alarm.Alarm `json:"alarms,omitempty"`
	Tick   uint64        `json:"tick,omitempty"`
}

type ctlResp struct {
	Err        string         `json:"err,omitempty"`
	Addrs      []string       `json:"addrs,omitempty"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	IDs        []alarm.ID     `json:"ids,omitempty"`
	Snap       *childSnapshot `json:"snap,omitempty"`
}

// childSnapshot is the child's view of itself at one instant.
type childSnapshot struct {
	Server    metrics.Snapshot
	Cluster   metrics.ClusterSnapshot
	CPUMicro  int64 // user+sys CPU of the child process so far
	PeakRSSKB int64
}

// serve is the child process: it boots the stack it is told to, listens
// on loopback, and obeys the control pipe until quit or EOF. EOF (the
// driver died) shuts down the same way as quit.
func serve(in io.Reader, out io.Writer) error {
	dec := json.NewDecoder(bufio.NewReader(in))
	enc := json.NewEncoder(out)
	var srv served
	defer srv.close()
	for {
		var req ctlReq
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("control: %w", err)
		}
		resp, err := srv.handle(req)
		if err != nil {
			resp.Err = err.Error()
		}
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("control: %w", err)
		}
		if req.Op == "quit" {
			return nil
		}
	}
}

// served is the child's state: the booted stack and its listener.
type served struct {
	st            *stack
	closeListener func() error
}

func (s *served) close() {
	if s.closeListener != nil {
		s.closeListener()
	}
	if s.st != nil {
		s.st.close()
	}
}

func (s *served) handle(req ctlReq) (resp ctlResp, err error) {
	switch {
	case req.Op == "quit":
		return resp, nil
	case req.Op == "boot":
		if s.st != nil || req.Boot == nil {
			return resp, fmt.Errorf("boot: already booted, or no config")
		}
		if s.st, err = buildStack(*req.Boot); err != nil {
			return resp, err
		}
		resp.Addrs, s.closeListener, err = listen(s.st)
		resp.GOMAXPROCS = runtime.GOMAXPROCS(0)
		return resp, err
	case s.st == nil:
		return resp, fmt.Errorf("%s before boot", req.Op)
	}
	switch req.Op {
	case "install":
		resp.IDs, err = s.st.install(req.Alarms)
	case "tick":
		err = s.st.setTick(req.Tick)
	case "snapshot":
		resp.Snap, err = snapshotSelf(s.st)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	return resp, err
}

// listen puts the stack behind its production TCP front end on loopback
// and returns the bound addresses (one per shard listener).
func listen(st *stack) ([]string, func() error, error) {
	if st.cl != nil {
		addrs := make([]string, st.cl.N())
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		srv, err := cluster.NewTCP(st.cl, addrs, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		go srv.Serve()
		return srv.Addrs(), srv.Close, nil
	}
	srv, err := server.NewTCPServerIdle(st.eng, "127.0.0.1:0", nil, 0)
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve()
	return []string{srv.Addr().String()}, srv.Close, nil
}

func snapshotSelf(st *stack) (*childSnapshot, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	sn := &childSnapshot{CPUMicro: (ru.Utime.Sec+ru.Stime.Sec)*1e6 + ru.Utime.Usec + ru.Stime.Usec}
	var err error
	if sn.PeakRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	sn.Server, sn.Cluster = st.counters()
	return sn, nil
}

// peakRSSKB is VmHWM from /proc/self/status: the peak resident set of
// this process image. ru_maxrss will not do: across fork+exec it keeps
// the forking parent's peak, so a child of a 100 MB driver reports 100 MB.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// newDataDir makes a fresh durable directory for one stack under the
// run's temp root; memory-only stacks have none. A stack booted on a used
// directory would recover the previous run's alarms and firings.
func newDataDir(root, mode string) (string, error) {
	if mode == modeMemory {
		return "", nil
	}
	return os.MkdirTemp(root, "data-")
}

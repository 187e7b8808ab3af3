package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(4)
	defer a.Close()
	want := wire.PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(3, 4)}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %v, want %v", got, want)
	}
	// And the reverse direction.
	if err := b.Send(wire.Ack{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if m, err := a.Recv(); err != nil || m.(wire.Ack).Seq != 2 {
		t.Errorf("reverse direction: %v %v", m, err)
	}
}

func TestPipeClose(t *testing.T) {
	a, b := Pipe(1)
	a.Close()
	if err := a.Send(wire.Ack{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: %v", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after close: %v", err)
	}
}

func TestPipeBlockedRecvUnblocksOnClose(t *testing.T) {
	a, b := Pipe(1)
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("blocked Recv returned %v", err)
	}
}

func TestFaultyDropsDeterministically(t *testing.T) {
	run := func() ([]uint32, int) {
		a, b := Pipe(4096)
		f := Faulty(a, FaultSchedule{Seed: 42, DropProb: 0.5}, 0)
		for i := 0; i < 1000; i++ {
			if err := f.Send(wire.Ack{Seq: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		var got []uint32
		p := Poller(b)
		for {
			m, ok, err := p.TryRecv()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, m.(wire.Ack).Seq)
		}
		return got, f.Stats().Dropped
	}
	got1, dropped := run()
	if dropped < 400 || dropped > 600 {
		t.Errorf("dropped %d of 1000 at p=0.5", dropped)
	}
	if len(got1)+dropped != 1000 {
		t.Errorf("delivered %d + dropped %d != 1000", len(got1), dropped)
	}
	// Same seed, same drop pattern message-for-message.
	got2, _ := run()
	if !reflect.DeepEqual(got1, got2) {
		t.Error("drop pattern not deterministic across identical runs")
	}
}

func TestFaultyDelayDupReorder(t *testing.T) {
	a, b := Pipe(4096)
	p := Poller(b)
	drain := func() []uint32 {
		var got []uint32
		for {
			m, ok, err := p.TryRecv()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return got
			}
			got = append(got, m.(wire.Ack).Seq)
		}
	}

	// Delay every message by exactly 2 ticks.
	f := Faulty(a, FaultSchedule{Seed: 1, DelayProb: 1, MaxDelayTicks: 1}, 0)
	if err := f.Send(wire.Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := drain(); len(got) != 0 {
		t.Fatalf("delayed message delivered early: %v", got)
	}
	if err := f.Advance(1); err != nil {
		t.Fatal(err)
	}
	if got := drain(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after Advance: %v", got)
	}

	// Duplicate every message.
	a2, b2 := Pipe(16)
	p2 := Poller(b2)
	f2 := Faulty(a2, FaultSchedule{Seed: 1, DupProb: 1}, 0)
	if err := f2.Send(wire.Ack{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	m1, ok1, _ := p2.TryRecv()
	m2, ok2, _ := p2.TryRecv()
	if !ok1 || !ok2 || m1.(wire.Ack).Seq != 7 || m2.(wire.Ack).Seq != 7 {
		t.Fatalf("duplicate not delivered twice: %v %v %v %v", m1, ok1, m2, ok2)
	}

	// Reorder: first message held, second overtakes it.
	a3, b3 := Pipe(16)
	p3 := Poller(b3)
	f3 := Faulty(a3, FaultSchedule{Seed: 1, ReorderProb: 1, Until: 1}, 0)
	if err := f3.Send(wire.Ack{Seq: 10}); err != nil { // held (tick 0 active)
		t.Fatal(err)
	}
	if err := f3.Advance(1); err != nil { // tick 1: schedule inactive
		t.Fatal(err)
	}
	// Hold was flushed by Advance; send another and check order overall.
	if err := f3.Send(wire.Ack{Seq: 11}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for {
		m, ok, err := p3.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seqs = append(seqs, m.(wire.Ack).Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{10, 11}) {
		t.Fatalf("advance-flushed hold order: %v", seqs)
	}

	// Reorder within a tick: held message overtaken by the next send.
	a4, b4 := Pipe(16)
	p4 := Poller(b4)
	f4 := Faulty(a4, FaultSchedule{Seed: 99, ReorderProb: 1, Until: 1}, 0)
	if err := f4.Send(wire.Ack{Seq: 20}); err != nil { // held
		t.Fatal(err)
	}
	if err := f4.Advance(5); err != nil { // exits window but flushes hold
		t.Fatal(err)
	}
	if err := f4.Send(wire.Ack{Seq: 21}); err != nil {
		t.Fatal(err)
	}
	seqs = nil
	for {
		m, ok, err := p4.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seqs = append(seqs, m.(wire.Ack).Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{20, 21}) {
		t.Fatalf("got %v", seqs)
	}
}

func TestFaultyReorderOvertake(t *testing.T) {
	a, b := Pipe(16)
	p := Poller(b)
	// Window covers both sends, but seed/probability only holds some:
	// with ReorderProb 1 every plain send is held, so interleave delivery
	// via a second send whose hold-flush happens in deliverLocked. Use a
	// schedule where reorder triggers on the first draw only.
	f := Faulty(a, FaultSchedule{Seed: 1, ReorderProb: 1, Until: 0}, 0)
	if err := f.Send(wire.Ack{Seq: 1}); err != nil { // held
		t.Fatal(err)
	}
	// Second send is also "reordered": joins the hold queue.
	if err := f.Send(wire.Ack{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(1); err != nil { // flush holds in FIFO order
		t.Fatal(err)
	}
	var seqs []uint32
	for {
		m, ok, err := p.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seqs = append(seqs, m.(wire.Ack).Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{1, 2}) {
		t.Fatalf("got %v", seqs)
	}
}

func TestFaultyPartitionAndReset(t *testing.T) {
	a, b := Pipe(64)
	p := Poller(b)
	f := Faulty(a, FaultSchedule{
		Seed:       7,
		Partitions: []Window{{From: 5, Until: 10}},
		ResetAt:    []int{20},
	}, 0)
	if err := f.Send(wire.Ack{Seq: 0}); err != nil { // tick 0: delivered
		t.Fatal(err)
	}
	if err := f.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(wire.Ack{Seq: 1}); err != nil { // partitioned
		t.Fatal(err)
	}
	if err := f.Advance(10); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(wire.Ack{Seq: 2}); err != nil { // partition over
		t.Fatal(err)
	}
	var seqs []uint32
	for {
		m, ok, err := p.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seqs = append(seqs, m.(wire.Ack).Seq)
	}
	if !reflect.DeepEqual(seqs, []uint32{0, 2}) {
		t.Fatalf("partition delivery: %v", seqs)
	}
	st := f.Stats()
	if st.PartitionDrops != 1 {
		t.Errorf("partition drops = %d", st.PartitionDrops)
	}
	// Reset fires crossing tick 20; the connection dies for both ends.
	if err := f.Advance(25); !errors.Is(err, ErrClosed) {
		t.Fatalf("Advance over reset: %v", err)
	}
	if err := f.Send(wire.Ack{Seq: 3}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after reset: %v", err)
	}
	if _, _, err := p.TryRecv(); !errors.Is(err, ErrClosed) {
		t.Errorf("peer TryRecv after reset: %v", err)
	}
	if f.Stats().Resets != 1 {
		t.Errorf("resets = %d", f.Stats().Resets)
	}
	// A fresh incarnation starting after the reset tick must not replay it.
	a2, _ := Pipe(16)
	f2 := Faulty(a2, FaultSchedule{Seed: 7, ResetAt: []int{20}}, 25)
	if err := f2.Advance(30); err != nil {
		t.Fatalf("spent reset refired: %v", err)
	}
	if f2.Stats().Resets != 0 {
		t.Errorf("spent reset counted: %d", f2.Stats().Resets)
	}
}

// TestFaultyConcurrentSendRace hammers one FaultyConn from many
// goroutines while another advances the clock; run with -race this
// catches any unguarded math/rand or queue state.
func TestFaultyConcurrentSendRace(t *testing.T) {
	a, b := Pipe(1 << 16)
	f := Faulty(a, FaultSchedule{
		Seed: 3, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.2,
		MaxDelayTicks: 3, ReorderProb: 0.2,
		Partitions: []Window{{From: 10, Until: 20}},
	}, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = f.Send(wire.Ack{Seq: uint32(g*1000 + i)})
				_ = f.Stats()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := 1; tick <= 50; tick++ {
			_ = f.Advance(tick)
		}
	}()
	// Concurrently drain the peer so sends never block on a full pipe.
	done := make(chan struct{})
	go func() {
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	_ = f.Advance(100) // release stragglers
	f.Close()
	close(done)
	st := f.Stats()
	if st.Sent != 4000 {
		t.Errorf("sent = %d", st.Sent)
	}
}

func TestBufferAdaptsConn(t *testing.T) {
	a, b := Pipe(4)
	p := Buffer(b, 8)
	if _, ok, err := p.TryRecv(); ok || err != nil {
		t.Fatalf("empty TryRecv: %v %v", ok, err)
	}
	if err := a.Send(wire.Ack{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	// The pump goroutine moves the message across, and later notices the
	// close, in its own time: poll against a deadline, not a spin count.
	poll := func() (wire.Message, error) {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if m, ok, err := p.TryRecv(); ok || err != nil {
				return m, err
			}
		}
		return nil, nil
	}
	got, err := poll()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.(wire.Ack).Seq != 5 {
		t.Fatalf("buffered TryRecv got %v", got)
	}
	a.Close()
	switch m, err := poll(); {
	case err == nil:
		t.Fatalf("buffered conn never reported close (got %v)", m)
	case !errors.Is(err, ErrClosed):
		t.Fatalf("unexpected close error: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []wire.Message{
		wire.Register{User: 5, Strategy: wire.StrategyPBSR, MaxHeight: 3},
		wire.PositionUpdate{User: 5, Seq: 1, Pos: geom.Pt(10, 20)},
		wire.SafePeriod{Seq: 1, Ticks: 30},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF at end, got %v", err)
	}
}

func TestFrameRejectsHostileLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("zero frame accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, wire.Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestTCPConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		conn := NewTCP(nc)
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		upd, ok := m.(wire.PositionUpdate)
		if !ok {
			t.Errorf("server got %v", m)
			return
		}
		conn.Send(wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 10, 10)})
	}()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(wire.PositionUpdate{User: 9, Seq: 7, Pos: geom.Pt(1, 2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rr, ok := resp.(wire.RectRegion); !ok || rr.Seq != 7 {
		t.Errorf("client got %v", resp)
	}
	wg.Wait()
}

// TestTCPFramesShareReads: the receiving side reads through a buffer, so
// frames that arrive together — small ones, and one larger than the
// buffer — must still come out whole and in order, and a deadline conn
// must behave the same.
func TestTCPFramesShareReads(t *testing.T) {
	big := wire.UpdateBatch{Updates: make([]wire.PositionUpdate, 400)} // > 4 KiB encoded
	for i := range big.Updates {
		big.Updates[i] = wire.PositionUpdate{User: uint64(i), Seq: uint32(i), Pos: geom.Pt(float64(i), 1)}
	}
	msgs := []wire.Message{wire.Ack{Seq: 1}, wire.Ack{Seq: 2}, big, wire.Ack{Seq: 3}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		var all bytes.Buffer
		for _, m := range msgs {
			if err := WriteFrame(&all, m); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := nc.Write(all.Bytes()); err != nil { // one write: the frames arrive back to back
			t.Error(err)
		}
	}()
	cli, err := DialDeadline(ln.Addr().String(), time.Second, 10*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i, want := range msgs {
		got, err := cli.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %v, want %v", i, got, want)
		}
	}
	if _, err := cli.Recv(); err != io.EOF {
		t.Fatalf("Recv after the peer closed: %v, want io.EOF", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestConcurrentSends(t *testing.T) {
	a, b := Pipe(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := a.Send(wire.Ack{Seq: uint32(g*1000 + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 800; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

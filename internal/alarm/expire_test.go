package alarm

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/geom"
)

func ttlComposite(owner UserID, expiresAt uint64) Alarm {
	return Alarm{Scope: Private, Owner: owner, Kind: KindComposite,
		Factors:   []Factor{{Center: geom.Pt(100, 100), Radius: 50, Weight: 1}},
		Threshold: 0.5, ExpiresAt: expiresAt}
}

// expireDueReadOnly runs ExpireDue while the test holds the registry's
// read lock: a call that returns did not ask for the write lock.
func expireDueReadOnly(t *testing.T, r *Registry, tick uint64) []ID {
	t.Helper()
	done := make(chan []ID, 1)
	r.mu.RLock()
	go func() { done <- r.ExpireDue(tick) }()
	select {
	case due := <-done:
		r.mu.RUnlock()
		return due
	case <-time.After(5 * time.Second):
		r.mu.RUnlock()
		<-done
		t.Fatalf("ExpireDue(%d) waited for the write lock", tick)
		return nil
	}
}

// TestExpireDueEveryInstallPath: a TTL composite must expire on its tick
// whichever way it entered the registry, because every path has to lower
// the expiry watermark ExpireDue trusts.
func TestExpireDueEveryInstallPath(t *testing.T) {
	const ttl = 40
	withID := ttlComposite(3, ttl)
	withID.ID = 9
	if err := validateLifecycle(&withID); err != nil { // derives Region, as a stored alarm has it
		t.Fatal(err)
	}
	paths := []struct {
		name  string
		build func(t *testing.T) (*Registry, ID)
	}{
		{"Install", func(t *testing.T) (*Registry, ID) {
			r := NewRegistry()
			id, err := r.Install(ttlComposite(3, ttl))
			if err != nil {
				t.Fatal(err)
			}
			return r, id
		}},
		{"InstallBatch", func(t *testing.T) (*Registry, ID) {
			r := NewRegistry()
			ids, err := r.InstallBatch([]Alarm{
				{Scope: Public, Region: geom.R(0, 0, 10, 10)}, ttlComposite(3, ttl)})
			if err != nil {
				t.Fatal(err)
			}
			return r, ids[1]
		}},
		{"InstallAssigned", func(t *testing.T) (*Registry, ID) {
			r := NewRegistry()
			if err := r.InstallAssigned([]Alarm{withID}); err != nil {
				t.Fatal(err)
			}
			return r, withID.ID
		}},
		{"Restore", func(t *testing.T) (*Registry, ID) {
			r, err := Restore([]Alarm{withID}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r, withID.ID
		}},
		{"LoadRegistry", func(t *testing.T) (*Registry, ID) {
			src := NewRegistry()
			id, err := src.Install(ttlComposite(3, ttl))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := src.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := LoadRegistry(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return r, id
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			r, id := p.build(t)
			if due := expireDueReadOnly(t, r, ttl-1); due != nil {
				t.Fatalf("ExpireDue(%d) = %v before the TTL", ttl-1, due)
			}
			if due := r.ExpireDue(ttl); !reflect.DeepEqual(due, []ID{id}) {
				t.Fatalf("ExpireDue(%d) = %v, want [%d]", ttl, due, id)
			}
			if _, ok := r.Get(id); ok {
				t.Fatal("expired composite still installed")
			}
			if due := expireDueReadOnly(t, r, ttl+1000); due != nil {
				t.Fatalf("ExpireDue after the only TTL alarm expired = %v", due)
			}
		})
	}
}

// TestExpireDueStaleWatermark: removing the earliest TTL alarm leaves the
// watermark behind it. That costs the one scan on the removed alarm's
// tick, which finds nothing due and moves the watermark to the next TTL.
func TestExpireDueStaleWatermark(t *testing.T) {
	r := NewRegistry()
	early, err := r.Install(ttlComposite(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	late, err := r.Install(ttlComposite(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	r.Remove(early)
	for tick := uint64(1); tick < 10; tick++ {
		if due := expireDueReadOnly(t, r, tick); due != nil {
			t.Fatalf("ExpireDue(%d) = %v", tick, due)
		}
	}
	if due := r.ExpireDue(10); due != nil { // the wasted scan
		t.Fatalf("ExpireDue(10) = %v after the alarm due then was removed", due)
	}
	for tick := uint64(11); tick < 100; tick++ {
		if due := expireDueReadOnly(t, r, tick); due != nil {
			t.Fatalf("ExpireDue(%d) = %v", tick, due)
		}
	}
	if due := r.ExpireDue(100); !reflect.DeepEqual(due, []ID{late}) {
		t.Fatalf("ExpireDue(100) = %v, want [%d]", due, late)
	}
}

// TestExpireDueWithoutTTLNeverWriteLocks: the tick path of a registry
// whose lifecycle alarms carry no TTL stays on the read lock.
func TestExpireDueWithoutTTLNeverWriteLocks(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Install(Alarm{Scope: Private, Owner: 1, Kind: KindContinuous, Region: geom.R(0, 0, 100, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(ttlComposite(1, 0)); err != nil {
		t.Fatal(err)
	}
	for _, tick := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		if due := expireDueReadOnly(t, r, tick); due != nil {
			t.Fatalf("ExpireDue(%d) = %v", tick, due)
		}
	}
}

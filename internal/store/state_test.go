package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/sabre-geo/sabre/internal/wire"
)

// TestExpireIndexMatchesWalk: with the user→tokens index, a random run
// of Hellos (tokens colliding and moving between users), Expires,
// snapshots and snapshot-plus-replay recoveries leaves exactly the
// sessions and clients a brute-force walk of the token map would.
func TestExpireIndexMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newBuilder(nil, 0)
		var snap *State
		var sinceSnap []Record
		refSessions := map[uint64]uint64{} // token -> user
		refClients := map[uint64]bool{}
		for step := 0; step < 400; step++ {
			user := uint64(1 + rng.Intn(8))
			var rec Record
			switch op := rng.Intn(10); {
			case op < 6:
				tok := uint64(1 + rng.Intn(24))
				rec = HelloRec{User: user, Token: tok, Strategy: wire.StrategyMWPSR}
				refSessions[tok] = user
				refClients[user] = true
			case op < 9:
				rec = ExpireRec{User: user}
				for tok, u := range refSessions {
					if u == user {
						delete(refSessions, tok)
					}
				}
				delete(refClients, user)
			default:
				// Checkpoint: the builder restarts from its own snapshot,
				// as recovery seeds it.
				snap, sinceSnap = b.finish(), nil
				b = newBuilder(snap, 0)
				continue
			}
			b.apply(rec)
			sinceSnap = append(sinceSnap, rec)
		}

		want := &State{}
		for tok, user := range refSessions {
			want.Sessions = append(want.Sessions, SessionRec{Token: tok, User: user})
		}
		sort.Slice(want.Sessions, func(i, j int) bool { return want.Sessions[i].Token < want.Sessions[j].Token })
		got := b.finish()
		if !reflect.DeepEqual(got.Sessions, want.Sessions) {
			t.Fatalf("seed %d: sessions %v, brute force %v", seed, got.Sessions, want.Sessions)
		}
		var users []uint64
		for _, c := range got.Clients {
			users = append(users, c.User)
		}
		for _, u := range users {
			if !refClients[u] {
				t.Fatalf("seed %d: client %d survived its Expire", seed, u)
			}
		}
		if len(users) != len(refClients) {
			t.Fatalf("seed %d: clients %v, brute force %v", seed, users, refClients)
		}

		// Recovery: the last snapshot plus the records logged since.
		r := newBuilder(snap, 0)
		for _, rec := range sinceSnap {
			r.apply(rec)
		}
		if !reflect.DeepEqual(r.finish(), got) {
			t.Fatalf("seed %d: snapshot + replay differs from the live builder", seed)
		}
	}
}

// BenchmarkApplyExpire times one Hello + Expire pair against a builder
// holding n other sessions; with the index the cost does not grow with n.
func BenchmarkApplyExpire(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			bld := newBuilder(nil, 0)
			for u := 1; u <= n; u++ {
				bld.apply(HelloRec{User: uint64(u), Token: uint64(u), Strategy: wire.StrategyMWPSR})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := uint64(n + 1 + i)
				bld.apply(HelloRec{User: u, Token: u, Strategy: wire.StrategyMWPSR})
				bld.apply(ExpireRec{User: u})
			}
		})
	}
}

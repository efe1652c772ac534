package cluster

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
)

func testMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://backend-%d:8722", i)
	}
	return ms
}

// gridKeys is every cell of the full 45x61 study at seed 42 — the key
// population the router shards in production.
func gridKeys(t *testing.T) []string {
	t.Helper()
	jobs := harness.GridJobs(proc.ConfigSpace(), nil)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = routeKey(42, j)
	}
	return keys
}

func TestRouterStability(t *testing.T) {
	members := testMembers(3)
	r1 := NewRouter(members)
	// Same member set presented in a different order (and with a
	// duplicate) must route identically: scores, not positions, decide.
	r2 := NewRouter([]string{members[2], members[0], members[1], members[0]})
	for _, key := range gridKeys(t) {
		if got1, got2 := r1.Route(key), r2.Route(key); got1 != got2 {
			t.Fatalf("Route(%q) unstable across member orderings: %q vs %q", key, got1, got2)
		}
		if r1.Route(key) != r1.Rank(key)[0] {
			t.Fatalf("Route(%q) disagrees with Rank[0]", key)
		}
	}
}

func TestRouterBalance(t *testing.T) {
	members := testMembers(3)
	r := NewRouter(members)
	counts := make(map[string]int)
	keys := gridKeys(t)
	for _, key := range keys {
		counts[r.Route(key)]++
	}
	mean := float64(len(keys)) / float64(len(members))
	for _, m := range members {
		c := counts[m]
		if float64(c) < 0.7*mean || float64(c) > 1.3*mean {
			t.Fatalf("member %s owns %d of %d cells, outside 30%% of the %.0f mean: %v",
				m, c, len(keys), mean, counts)
		}
	}
}

func TestRouterMinimalDisruption(t *testing.T) {
	members := testMembers(3)
	r := NewRouter(members)
	dead := members[1]
	survivors := NewRouter([]string{members[0], members[2]})
	moved := 0
	for _, key := range gridKeys(t) {
		before := r.Route(key)
		after := survivors.Route(key)
		if before != dead {
			// Keys the dead member never owned must not move.
			if after != before {
				t.Fatalf("key %q moved %q -> %q though %q was not its owner", key, before, after, dead)
			}
			continue
		}
		moved++
		// The dead member's keys must land on their second rank.
		if want := r.Rank(key)[1]; after != want {
			t.Fatalf("key %q re-homed to %q, want second rank %q", key, after, want)
		}
	}
	if moved == 0 {
		t.Fatal("dead member owned no keys; balance test should have caught this")
	}
}

// TestRouteJobMatchesRouteKey pins RouteJob to Route over the job's
// routeKey string for every cell of the grid, at two seeds.
func TestRouteJobMatchesRouteKey(t *testing.T) {
	r := NewRouter(testMembers(3))
	for _, seed := range []int64{42, -7} {
		for _, j := range harness.GridJobs(proc.ConfigSpace(), nil) {
			if got, want := r.RouteJob(seed, j), r.Route(routeKey(seed, j)); got != want {
				t.Fatalf("RouteJob(%d, %s on %s) = %q, Route(routeKey) = %q", seed, j.Bench.Name, j.CP, got, want)
			}
		}
	}
}

// TestRouteAllocFree pins routing at zero allocations: the scheduler
// routes every job of every batch.
func TestRouteAllocFree(t *testing.T) {
	r := NewRouter(testMembers(3))
	key := "42|mcf|i7 (45)|4|2|2.6|true"
	if n := testing.AllocsPerRun(100, func() { _ = r.Route(key) }); n != 0 {
		t.Errorf("Route allocates %v times per call, want 0", n)
	}
	j := stockJobs(t, 1)[0]
	if n := testing.AllocsPerRun(100, func() { _ = r.RouteJob(42, j) }); n != 0 {
		t.Errorf("RouteJob allocates %v times per call, want 0", n)
	}
}

// FuzzRoute fuzzes the rendezvous properties the resilience layer
// depends on: determinism (same cell, same member set, same owner),
// membership (the owner is a member), and minimal disruption (removing
// a non-owner never moves a key; removing the owner promotes exactly
// the second rank).
func FuzzRoute(f *testing.F) {
	f.Add("42|mcf|i7 (45)|4|2|2.6|true", uint8(3))
	f.Add("", uint8(1))
	f.Add("7|lusearch|Atom (45)|1|1|0.8|false", uint8(7))
	f.Fuzz(func(t *testing.T, key string, n uint8) {
		members := testMembers(int(n%8) + 1)
		r := NewRouter(members)

		owner := r.Route(key)
		if owner != r.Route(key) {
			t.Fatal("Route not deterministic")
		}
		found := false
		for _, m := range members {
			if m == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %q not a member of %v", owner, members)
		}
		rank := r.Rank(key)
		if len(rank) != len(r.Members()) {
			t.Fatalf("Rank returned %d members, want %d", len(rank), len(r.Members()))
		}
		if rank[0] != owner {
			t.Fatalf("Rank[0]=%q disagrees with Route=%q", rank[0], owner)
		}

		if len(members) < 2 {
			return
		}
		// Remove a non-owner: the key must not move.
		var without []string
		removedNonOwner := false
		for _, m := range members {
			if !removedNonOwner && m != owner {
				removedNonOwner = true
				continue
			}
			without = append(without, m)
		}
		if got := NewRouter(without).Route(key); got != owner {
			t.Fatalf("removing a non-owner moved key: %q -> %q", owner, got)
		}
		// Remove the owner: the key must land on the second rank.
		var survivors []string
		for _, m := range members {
			if m != owner {
				survivors = append(survivors, m)
			}
		}
		if got := NewRouter(survivors).Route(key); got != rank[1] {
			t.Fatalf("removing the owner sent key to %q, want second rank %q", got, rank[1])
		}
	})
}

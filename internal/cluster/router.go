package cluster

import (
	"sort"
	"strconv"

	"repro/internal/harness"
)

// Router shards cells across backends with rendezvous (highest-random-
// weight) hashing: every (key, member) pair gets a pseudo-random score,
// and a key belongs to the member with the highest score. Two properties
// make it the right fit here:
//
//   - Stability: a key's owner depends only on the member set, so every
//     run (and every re-dispatch) homes the same cell on the same
//     backend, keeping that backend's LRU shard hot for exactly its
//     slice of the study grid.
//
//   - Minimal disruption: removing a member only reassigns the keys that
//     member owned — each to its second-ranked backend — so a fleet
//     without one member re-homes only that member's cells.
type Router struct {
	members []string
	// prefix[i] is the FNV-1a state after hashing members[i] and the NUL
	// separator, so scoring a key hashes only the key's bytes.
	prefix []uint64
}

// NewRouter builds a router over the given members, deduplicated; order
// does not matter (scores, not positions, decide ownership).
func NewRouter(members []string) *Router {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	prefix := make([]uint64, len(uniq))
	for i, m := range uniq {
		prefix[i] = fnvAdd(fnvAdd(fnvOffset64, m), "\x00")
	}
	return &Router{members: uniq, prefix: prefix}
}

// Members returns the member set in sorted order.
func (r *Router) Members() []string {
	return append([]string(nil), r.members...)
}

// FNV-1a parameters. A key's score on a member is FNV-64a over
// member NUL key: cheap, stateless, and uniform enough that a 45x61
// grid spreads within a few percent of even (see FuzzRoute). Inlined
// rather than hash/fnv so scoring allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd[K string | []byte](h uint64, k K) uint64 {
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= fnvPrime64
	}
	return h
}

// Rank returns the members ordered by descending score for key: Rank[0]
// is the key's owner, Rank[1] its owner once Rank[0] leaves, and so on. Ties break
// by member name so the order is total and deterministic.
func (r *Router) Rank(key string) []string {
	order := make([]int, len(r.members))
	scores := make([]uint64, len(r.members))
	for i, p := range r.prefix {
		order[i] = i
		scores[i] = fnvAdd(p, key)
	}
	// members is sorted, so an index tie-break is a name tie-break.
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	ranked := make([]string, len(order))
	for i, m := range order {
		ranked[i] = r.members[m]
	}
	return ranked
}

// route returns key's highest-scoring member, or "" for an empty
// member set. Members are sorted and a tie needs a strictly higher
// score to displace, so ties go to the smaller name.
func route[K string | []byte](r *Router, key K) string {
	best := -1
	var bestScore uint64
	for i, p := range r.prefix {
		if s := fnvAdd(p, key); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return ""
	}
	return r.members[best]
}

// Route returns key's owner, or "" for an empty member set.
func (r *Router) Route(key string) string { return route(r, key) }

// RouteJob returns the owner of job j's cell at seed: Route of its
// routeKey, hashed from a stack buffer so no key string is built.
func (r *Router) RouteJob(seed int64, j harness.Job) string {
	var buf [128]byte
	return route(r, appendRouteKey(buf[:0], seed, j))
}

// routeKey is a job's rendezvous key: exactly the determinism tuple, so
// every run homes cells identically and a backend's cache sees a
// stable slice of the grid. strconv appends render the same bytes the
// former fmt.Sprintf("%d|%s|%s|%d|%d|%.17g|%t", ...) did, so routing
// is unchanged across versions.
func routeKey(seed int64, j harness.Job) string {
	return string(appendRouteKey(make([]byte, 0, 64), seed, j))
}

func appendRouteKey(b []byte, seed int64, j harness.Job) []byte {
	cfg := j.CP.Config
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = append(b, j.Bench.Name...)
	b = append(b, '|')
	b = append(b, j.CP.Proc.Name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.Cores), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(cfg.SMTWays), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, cfg.ClockGHz, 'g', 17, 64)
	b = append(b, '|')
	return strconv.AppendBool(b, cfg.Turbo)
}

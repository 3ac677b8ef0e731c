package cluster

// The consistent-hash ring. Each member (a node's advertised base URL)
// owns a contiguous share of the 64-bit hash space through a fixed set
// of virtual nodes, so adding or removing one member reshuffles only
// ~1/N of the keyspace. Jobs route by graph fingerprint, which keeps
// each node's memory and disk caches hot for its own shard.
//
// The ring is immutable after construction: membership is static
// configuration (the -peers flag), and failure handling is the health
// layer's job — a down member stays in the ring so its shard snaps back
// to it on recovery, and routing simply skips it while it is down.

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// vnode is one virtual point of a member on the ring.
type vnode struct {
	hash   uint64
	member string
}

// ring is the immutable consistent-hash ring.
type ring struct {
	vnodes  []vnode  // sorted by hash
	members []string // distinct members, sorted
}

// hashKey positions a key (or a virtual node label) on the ring. It
// truncates a sha256: vnode labels are highly structured (the same URL
// with a small integer suffix), and weaker string hashes cluster them
// badly enough to skew member shares by 10x. A cryptographic hash keeps
// placement uniform no matter how low-entropy the labels are, and ring
// construction is a one-time cost.
func hashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring with `replicas` virtual nodes per member.
// Duplicate members collapse; an empty member list yields an empty ring
// (every Replicas call returns nil).
func newRing(members []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultVirtualNodes
	}
	seen := map[string]bool{}
	r := &ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	r.vnodes = make([]vnode, 0, len(r.members)*replicas)
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hashKey(m + "#" + itoa(i)), member: m})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		// Hash ties (vanishingly rare) break deterministically by name so
		// every node computes the identical ring.
		return r.vnodes[i].member < r.vnodes[j].member
	})
	return r
}

// itoa avoids strconv for the tiny vnode labels.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// Replicas returns every member in ring preference order for key: the
// owner (first virtual node at or after the key's hash), then the
// distinct members of the successive virtual nodes. The full membership
// always appears exactly once, so a caller can walk the list as a
// fail-over sequence.
func (r *ring) Replicas(key string) []string {
	if len(r.vnodes) == 0 {
		return nil
	}
	h := hashKey(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := map[string]bool{}
	for k := 0; k < len(r.vnodes) && len(out) < len(r.members); k++ {
		m := r.vnodes[(i+k)%len(r.vnodes)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// Owner returns the primary member for key ("" on an empty ring),
// ignoring health — the health-aware preference walk lives in
// Node.Route.
func (r *ring) Owner(key string) string {
	if reps := r.Replicas(key); len(reps) > 0 {
		return reps[0]
	}
	return ""
}

// Shares reports each member's fraction of the hash space — the ring
// ownership gauge exported on /metrics, and a balance check in tests.
func (r *ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.members))
	if len(r.vnodes) == 0 {
		return shares
	}
	if len(r.vnodes) == 1 {
		shares[r.vnodes[0].member] = 1
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64
	for i, vn := range r.vnodes {
		// Unsigned subtraction wraps, which is exactly the segment length
		// on a circular space (i == 0 is the wrap-around segment).
		span := vn.hash - r.vnodes[(i+len(r.vnodes)-1)%len(r.vnodes)].hash
		shares[vn.member] += float64(span) / whole
	}
	return shares
}

// Members returns the ring membership, sorted.
func (r *ring) Members() []string { return r.members }

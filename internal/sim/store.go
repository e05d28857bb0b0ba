package sim

import "slices"

// Packet storage. A packet is a recycled int32 id into a slab of 32-byte
// records; a queue links its ids through a 4-byte per-id link, and a mail
// ring moves 8 bytes per packet. Arbitration decides from each unit's
// 16-byte head record (arbitrate.go), not from the slab: a grant, drop or
// delivery touches only the record it moves and the new head's, one cache
// line each (DESIGN.md §10).
//
// Id lifecycle (the determinism contract):
//
//   - The global free stack is touched only in the serial sections of a
//     cycle: refillIDs moves ids into per-shard allocation caches before
//     the routing phase, and commit drains the per-shard freed journals
//     back in fixed shard order.
//   - The routing phase allocates from its shard's cache only and the
//     arbitration phase frees into its shard's journal only, so a freed id
//     is never reallocated in the same cycle, and every id movement is a
//     pure function of the worker-count-independent serial schedule.
//     Results never depend on id values; a deterministic allocator keeps
//     memory layout from varying with the worker count too.
//
// A record and its link are written only by whoever holds the id: the
// routing shard that fills it, then the home shard of the queue holding
// it (the hop cursor on a grant, the path on a lane failover, the link on
// a push), handed over through the mail rings across the phase barrier.

// pktStride is the per-packet hop capacity: one slot per link of the
// longest representable path.
const pktStride = MaxPathNodes - 1

// pkt is one packet: 32 bytes, two to a cache line (chunks are
// page-aligned). A hop is stored as the adjacency slot it leaves by, not
// as a channel id: hop i leaves the router holding the packet — the home
// router of the unit it is queued on — through channel
// FirstChannel(router)+slots[i], so a byte suffices up to degree 255
// (NewEngine rejects larger ones, CheckDegree).
type pkt struct {
	gen     int64            // generation cycle: latency base, and measured iff inside the window
	dstEP   int32            // destination endpoint
	srcEP   int32            // source endpoint: the re-injection point under faults
	slots   [pktStride]uint8 // adjacency slot of hop i at the router it leaves
	nHops   int8             // links on the path; 0 = source == destination router
	hop     int8             // links already traversed; ejects at hop == nHops
	lane    int8             // routing lane: 0 = minimal band, 1.. = tree lanes (multipath only)
	retries uint8            // source retries already consumed (faults only)
}

// maxDegree is the largest router degree a slot byte addresses.
const maxDegree = 255

// setPath stores the router path in p as adjacency slots, the one place
// a path is encoded (unitState.setHead decodes it), and rewinds p to its
// first hop. An empty path has no hops.
func (e *Engine) setPath(p *pkt, path []int) {
	for i := 0; i+1 < len(path); i++ {
		c := e.channelID(path[i], path[i+1])
		if c < 0 {
			panic("sim: packet path uses a non-edge")
		}
		p.slots[i] = uint8(c - e.g.FirstChannel(path[i]))
	}
	p.nHops = int8(max(len(path)-1, 0))
	p.hop = 0
}

// The slab grows by whole chunks and never moves a record: an array
// regrown by copying leaves each outgrown copy behind as garbage too small
// for the next one to reuse, doubling peak RSS at saturated points.
const (
	pktChunkBits = 10
	pktChunk     = 1 << pktChunkBits
)

// slabChunk is one slab chunk: 32 KB of records, then their queue links
// (kept out of the records so two records share a cache line).
type slabChunk struct {
	recs [pktChunk]pkt
	next [pktChunk]int32 // id behind this one in its queue; -1 at the tail
}

// pktStore is the packet slab, indexed by packet id.
type pktStore struct {
	chunks []*slabChunk

	// free is the global id stack. Serial sections only: refillIDs pops,
	// commit and the fault paths push. Capacity is at least the slab
	// capacity, so pushes never reallocate.
	free []int32
}

// at returns packet id's record.
func (st *pktStore) at(id int32) *pkt {
	return &st.chunks[id>>pktChunkBits].recs[id&(pktChunk-1)]
}

// link returns packet id's queue link.
func (st *pktStore) link(id int32) *int32 {
	return &st.chunks[id>>pktChunkBits].next[id&(pktChunk-1)]
}

// cap returns the slab capacity (ids ever created).
func (st *pktStore) cap() int { return len(st.chunks) * pktChunk }

// grow extends the slab by the whole chunks that make at least n more
// ids free. Chunks never move, so there is nothing to amortize: the slab
// ends a run at most one chunk above its peak live count. Only the free
// stack's capacity grows geometrically (append), so it is not copied
// chunk by chunk. Serial sections only.
func (st *pktStore) grow(n int) {
	old := st.cap()
	for c := (n + pktChunk - 1) / pktChunk; c > 0; c-- {
		st.chunks = append(st.chunks, new(slabChunk))
	}
	free := slices.Grow(st.free, st.cap()-len(st.free))
	// Hand out low ids first (descending push, LIFO pop) to keep the
	// working set compact.
	for id := st.cap() - 1; id >= old; id-- {
		free = append(free, int32(id))
	}
	st.free = free
}

// pktQueue is one FIFO of packet ids (a channel/VC input buffer or an
// endpoint injection queue) linked through the slab: 8 bytes a queue, and
// memory in proportion to the packets queued rather than to the deepest
// each queue ever was. head is -1 when the queue is empty; tail is then
// stale, and push ignores it.
type pktQueue struct{ head, tail int32 }

func (st *pktStore) push(q *pktQueue, id int32) {
	*st.link(id) = -1
	if q.head < 0 {
		q.head = id
	} else {
		*st.link(q.tail) = id
	}
	q.tail = id
}

func (st *pktStore) pop(q *pktQueue) { q.head = *st.link(q.head) }

// length walks q, for the end-of-window and end-of-run counts.
func (st *pktStore) length(q *pktQueue) (n int) {
	for id := q.head; id >= 0; id = *st.link(id) {
		n++
	}
	return n
}

// bitset is a dense uint64 bit vector: the word-at-a-time replacement
// for []bool unit flags. Units are numbered router-major with each
// shard's block padded to a 64-bit boundary (see NewEngine), so two
// shards never write the same word concurrently — the same ownership
// argument that makes the byte-per-unit version race-free, kept at 8×
// the density.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint32(i) & 63) }

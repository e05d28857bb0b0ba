package sim

// Packet storage. A packet is a recycled int32 id into a slab of 64-byte
// records, so queues and mail rings move 4–8 bytes per packet.
// Arbitration does not read the slab to decide anything: what it needs to
// know about a queue's head packet — next channel or ejection endpoint,
// links left, lane — is cached in the unit's 16-byte unitState
// (arbitrate.go) and refreshed only when the head changes. That matters
// because most attempts lose: at the saturated fig_sweep points 68 % of
// the 26.3 M attempts of a pass failed, and while each of them walked
// queue buffer → hop → chans through per-field arrays to find the
// resource to test, arbitration was 57 % of the profile. A grant, a drop
// or a delivery touches the record of the packet it moves and the record
// of the packet that becomes the head, one cache line each. See
// DESIGN.md §10.
//
// Id lifecycle (the determinism contract):
//
//   - The global free stack is touched only in the serial sections of a
//     cycle: refillIDs (before the routing phase) moves ids into
//     per-shard allocation caches, and commit drains the per-shard freed
//     journals back in fixed shard order.
//   - The routing phase allocates from its shard's cache only; the
//     arbitration phase frees into its shard's journal only. A freed id
//     is therefore never reallocated in the same cycle, and every
//     id movement is a pure function of the (worker-count-independent)
//     serial schedule.
//   - Results never depend on id values — ids are array indices, and all
//     ordering comes from the queues — but keeping the allocator
//     deterministic means memory layout (and thus any accidental
//     dependence) cannot vary with the worker count either.
//
// A record is written only by whoever holds its id: the routing shard
// that fills it, then the home shard of the queue it heads (the hop
// cursor on a grant, the path on a lane failover), handed over through
// the mail rings across the phase barrier.

// pktStride is the per-packet channel-id capacity: one slot per link of
// the longest representable path.
const pktStride = MaxPathNodes - 1

// pkt is one packet: 64 bytes, so the path and the cursor into it share
// a cache line (chunks are page-aligned).
type pkt struct {
	chans   [pktStride]int32 // channel id of hop i
	dstEP   int32            // destination endpoint
	gen     int64            // generation cycle: latency base, and measured iff inside the window
	srcEP   int32            // source endpoint: the re-injection point under faults
	nHops   int8             // channels on the path; 0 = source == destination router
	hop     int8             // channels already traversed; ejects at hop == nHops
	lane    int8             // routing lane: 0 = minimal band, 1.. = tree lanes (multipath only)
	retries uint8            // source retries already consumed (faults only)
}

// The slab grows by whole chunks and never moves a record. One array
// regrown by copying leaves each outgrown copy behind as garbage too small
// for the next one to reuse, which doubles peak RSS at the saturated
// points, where the source backlog keeps the slab growing all run.
const (
	pktChunkBits = 10
	pktChunk     = 1 << pktChunkBits // records per chunk: 64 KB
)

// pktStore is the packet slab, indexed by packet id.
type pktStore struct {
	chunks []*[pktChunk]pkt

	// free is the global id stack. Serial sections only: refillIDs pops,
	// commit and the fault paths push. Capacity always equals the slab
	// capacity, so pushes never reallocate.
	free []int32
}

// at returns packet id's record.
func (st *pktStore) at(id int32) *pkt {
	return &st.chunks[id>>pktChunkBits][id&(pktChunk-1)]
}

// cap returns the slab capacity (ids ever created).
func (st *pktStore) cap() int { return len(st.chunks) * pktChunk }

// grow extends the slab so at least n more ids are free, growing
// geometrically to amortize the free stack's reallocation. Serial
// sections only.
func (st *pktStore) grow(n int) {
	n = max(n, st.cap()/2)
	old := st.cap()
	for c := (n + pktChunk - 1) / pktChunk; c > 0; c-- {
		st.chunks = append(st.chunks, new([pktChunk]pkt))
	}
	free := make([]int32, len(st.free), st.cap())
	copy(free, st.free)
	// Hand out low ids first (descending push, LIFO pop) to keep the
	// working set compact.
	for id := st.cap() - 1; id >= old; id-- {
		free = append(free, int32(id))
	}
	st.free = free
}

// pktQueue is one FIFO of packet ids (a channel/VC input buffer or an
// endpoint injection queue). pop compacts whenever the dead prefix
// reaches half the buffer: each element is copied at most once per
// residence on average (amortized O(1)) and the buffer's high-water
// capacity stays ~2× the live occupancy, so queues reach a steady state
// where push never reallocates.
type pktQueue struct {
	buf  []int32
	head int
}

func (q *pktQueue) empty() bool   { return q.head >= len(q.buf) }
func (q *pktQueue) len() int      { return len(q.buf) - q.head }
func (q *pktQueue) front() int32  { return q.buf[q.head] }
func (q *pktQueue) push(id int32) { q.buf = append(q.buf, id) }

func (q *pktQueue) pop() {
	q.head++
	if q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
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

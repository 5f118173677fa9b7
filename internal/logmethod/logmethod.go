// Package logmethod implements the dynamized PR-tree the paper sketches in
// Sections 1.2 and 4: the external logarithmic method (Bentley–Saxe
// dynamization as used by Arge & Vahrenhold and the Bkd-tree) layered over
// static PR-trees.
//
// The structure keeps an in-memory buffer of up to base rectangles plus a
// logarithmic number of static PR-trees, where level i is either empty or
// holds exactly base*2^i rectangles. Inserting into a full buffer merges
// the buffer with the occupied prefix of levels into the first empty level
// — a binary-counter carry — so every rectangle is rebuilt O(log(N/base))
// times, giving the amortized insertion bound of the paper while every
// level keeps the worst-case-optimal PR-tree query bound. Deletions use
// tombstones with a global rebuild once half the stored items are dead,
// the standard amortization.
//
// # Concurrency
//
// The component directory — buffer, static levels, tombstones — is an
// immutable state value swapped through an atomic pointer. Readers
// (RunWindow, RunNearest, Items, Len) load the pointer once, bracket
// their page accesses with the backend's Snapshotter (see
// storage.Snapshotter), and never take a lock: a level a reader is
// traversing stays byte-stable even while a writer replaces and frees it,
// because the freed pages are epoch-pinned until the reader drains.
// Writers (Insert, Delete, Flush) serialize on an internal mutex and
// publish copy-on-write states: a visible buffer slice is never mutated
// in place, the tombstone map is copied per change, and replaced levels
// are released only after the new state is visible.
//
// Carry merges can also run off to the side: see carry.go and
// internal/compact for the background protocol (a merge consumes a
// snapshot of the buffer and the occupied level prefix while readers and
// writers keep going, then installs atomically).
package logmethod

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prtree/internal/bulk"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// state is one immutable version of the component directory. Writers
// build a new state (sharing unchanged components) and publish it with an
// atomic store; readers load it once and use only what they loaded.
//
// Copy-on-write rules: buffer is append-only — growing it in place is
// safe (no published state can see past its own length), but removing an
// item allocates a fresh slice; dead is copied on every mutation; levels
// is copied whenever an entry changes. merging is the buffer snapshot an
// in-flight background carry consumed — still visible to queries, frozen
// until the carry installs or aborts.
type state struct {
	buffer  []geom.Item   // live items not yet in any static level
	merging []geom.Item   // buffer snapshot owned by the in-flight carry (nil when idle)
	mergeK  int           // levels[0:mergeK] are also consumed by that carry
	levels  []*rtree.Tree // levels[i] is nil or holds ~base*2^i items
	dead    map[uint32]geom.Rect
	live    int // live items (excludes tombstoned ones)
	stored  int // items physically present in buffer+merging+levels
}

// Tree is a dynamic spatial index over the logarithmic method.
// Item IDs must be unique across live items; Delete identifies items by
// (rect, id).
//
// The bulk.Options passed to New — including Options.Layout — apply to
// every static level the structure builds, so the logarithmic method runs
// on compressed pages the same way the one-shot loaders do.
//
// Queries are safe to run concurrently with each other and with
// mutations. Mutations serialize internally, but callers that bracket
// mutations in backend transactions (see prtree.Dynamic) must serialize
// those brackets themselves — backend transactions do not nest.
type Tree struct {
	pager *storage.Pager
	opt   bulk.Options
	base  int
	snap  storage.Snapshotter

	st atomic.Pointer[state]

	mu        sync.Mutex    // serializes writers and carry transitions
	idle      *sync.Cond    // broadcast when an in-flight carry installs or aborts
	flight    bool          // a background carry is in flight
	backgrnd  bool          // inline carries disabled; a compactor drives them
	gcPending bool          // a tombstone-GC rebuild is due but was deferred
	kick      chan struct{} // buffered signal: buffer is full, carry wanted

	rebuf []geom.Item

	spill []storage.PageID // state pages owned by the last SaveState
}

// New creates an empty dynamic tree. base is the buffer capacity (0 means
// one leaf's worth, i.e. the layout's fanout).
func New(pager *storage.Pager, opt bulk.Options, base int) *Tree {
	if base <= 0 {
		base = opt.Layout.MaxFanout(pager.Backend().BlockSize())
	}
	t := &Tree{
		pager: pager,
		opt:   opt,
		base:  base,
		snap:  storage.EnsureSnapshotter(pager.Backend()),
		kick:  make(chan struct{}, 1),
	}
	t.idle = sync.NewCond(&t.mu)
	t.st.Store(&state{dead: map[uint32]geom.Rect{}})
	return t
}

// Base returns the buffer capacity.
func (t *Tree) Base() int { return t.base }

// Len returns the number of live rectangles.
func (t *Tree) Len() int { return t.st.Load().live }

// BufferLen returns the number of items in the in-memory buffer (not
// counting a snapshot an in-flight carry owns).
func (t *Tree) BufferLen() int { return len(t.st.Load().buffer) }

// Levels returns the number of occupied static levels (for inspection).
func (t *Tree) Levels() int {
	n := 0
	for _, l := range t.st.Load().levels {
		if l != nil {
			n++
		}
	}
	return n
}

// LevelSizes returns the item count of each level slot (0 when empty),
// lowest level first — the structure's "binary counter" digits.
func (t *Tree) LevelSizes() []int {
	s := t.st.Load()
	out := make([]int, len(s.levels))
	for i, l := range s.levels {
		if l != nil {
			out[i] = l.Len()
		}
	}
	return out
}

// copyDead returns a mutable copy of m.
func copyDead(m map[uint32]geom.Rect) map[uint32]geom.Rect {
	out := make(map[uint32]geom.Rect, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Insert adds a rectangle. Amortized cost is O((log_{M/B} N)(log2 N)/B)
// block I/Os; the worst case (a full carry) rebuilds O(N) items — unless
// a background compactor is attached, in which case Insert only appends
// to the buffer and the carry runs off to the side.
func (t *Tree) Insert(it geom.Item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if r, ok := s.dead[it.ID]; ok {
		// Reinserting a tombstoned id revives it only if the rect matches;
		// otherwise the id would be ambiguous.
		if r != it.Rect {
			panic(fmt.Sprintf("logmethod: id %d reused with different rect", it.ID))
		}
		ns := *s
		ns.dead = copyDead(s.dead)
		delete(ns.dead, it.ID)
		ns.live++
		t.st.Store(&ns)
		return
	}
	ns := *s
	ns.buffer = append(s.buffer, it) // append-only: safe to share the array
	ns.live++
	ns.stored++
	t.st.Store(&ns)
	if len(ns.buffer) >= t.base {
		if t.backgrnd {
			t.signalCarry()
		} else {
			t.carryLocked()
		}
	}
}

// signalCarry nudges the attached compactor without blocking.
func (t *Tree) signalCarry() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// carryLocked merges the buffer and the occupied prefix of levels into
// the first empty level, synchronously. The merge scratch is retained
// across carries (rebuf): every insertion that fills the in-memory buffer
// triggers one, so reusing the slice keeps the steady-state insert path
// allocation-lean. (The scratch is never published to readers — only the
// built tree is.) Caller holds t.mu with no carry in flight.
func (t *Tree) carryLocked() {
	s := t.st.Load()
	k := 0
	for k < len(s.levels) && s.levels[k] != nil {
		k++
	}
	items := append(t.rebuf[:0], s.buffer...)
	for i := 0; i < k; i++ {
		items = append(items, s.levels[i].Items()...)
	}
	// Retain only modestly sized buffers: small carries (the geometrically
	// common case) hit every base insertions, while a full-prefix carry is
	// rare and O(N)-sized — keeping that one alive would pin the largest
	// merge ever seen for the tree's lifetime.
	if cap(items) <= 16*t.base {
		t.rebuf = items
	} else {
		t.rebuf = nil
	}
	built := bulk.FromItems(bulk.LoaderPR, t.pager, items, t.opt)
	ns := *s
	ns.buffer = nil
	ns.levels = make([]*rtree.Tree, maxInt(len(s.levels), k+1))
	copy(ns.levels, s.levels)
	for i := 0; i < k; i++ {
		ns.levels[i] = nil
	}
	ns.levels[k] = built
	t.st.Store(&ns)
	// Free replaced levels only after the new state is visible, so a
	// reader still traversing them holds epoch pins on every freed page;
	// FreePages leaves the structs untouched for those same readers.
	for i := 0; i < k; i++ {
		s.levels[i].FreePages()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Delete removes the rectangle with the given rect and id, returning false
// if it is not stored (or already deleted). Deletions are tombstoned; once
// half the stored items are dead the structure rebuilds itself (the
// rebuild is deferred while a background carry is in flight — the
// compactor picks it up when the carry lands).
func (t *Tree) Delete(it geom.Item) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Load()
	if _, gone := s.dead[it.ID]; gone {
		return false
	}
	// Fast path: still in the buffer. Removal copies — the old slice may
	// be visible to in-flight readers.
	for i, b := range s.buffer {
		if b.ID == it.ID && b.Rect == it.Rect {
			ns := *s
			ns.buffer = make([]geom.Item, 0, len(s.buffer)-1)
			ns.buffer = append(append(ns.buffer, s.buffer[:i]...), s.buffer[i+1:]...)
			ns.live--
			ns.stored--
			t.st.Store(&ns)
			return true
		}
	}
	if !t.containsStored(s, it) {
		return false
	}
	ns := *s
	ns.dead = copyDead(s.dead)
	ns.dead[it.ID] = it.Rect
	ns.live--
	t.st.Store(&ns)
	if 2*len(ns.dead) >= ns.stored && ns.stored > 0 {
		if t.flight {
			// A background carry holds references to the levels; the GC
			// rebuild would release them. Defer it to the compactor.
			t.gcPending = true
		} else {
			t.rebuildLocked()
		}
	}
	return true
}

// containsStored checks whether a (rect, id) pair is physically present —
// in the in-flight carry's buffer snapshot or in a static level.
func (t *Tree) containsStored(s *state, it geom.Item) bool {
	for _, m := range s.merging {
		if m.ID == it.ID && m.Rect == it.Rect {
			return true
		}
	}
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		found := false
		l.RunWindow(it.Rect, false, func(got geom.Item) bool {
			if got.ID == it.ID && got.Rect == it.Rect {
				found = true
				return false
			}
			return true
		}, rtree.RunOptions{})
		if found {
			return true
		}
	}
	return false
}

// rebuildLocked compacts everything live into a single fresh structure.
// Caller holds t.mu with no carry in flight.
func (t *Tree) rebuildLocked() {
	s := t.st.Load()
	items := make([]geom.Item, 0, s.live)
	items = append(items, s.buffer...)
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		for _, it := range l.Items() {
			if _, gone := s.dead[it.ID]; !gone {
				items = append(items, it)
			}
		}
	}
	ns := *s
	ns.buffer, ns.levels = nil, nil
	ns.dead = map[uint32]geom.Rect{}
	ns.stored = len(items)
	ns.live = len(items)
	// Small remainders go back to the buffer; otherwise the compacted tree
	// lands at the level matching its size (sizes are approximate after a
	// rebuild, which only affects constants in the amortized analysis).
	if len(items) > 0 && len(items) >= t.base {
		k := 0
		for t.base<<uint(k+1) <= len(items) {
			k++
		}
		ns.levels = make([]*rtree.Tree, k+1)
		ns.levels[k] = bulk.FromItems(bulk.LoaderPR, t.pager, items, t.opt)
	} else {
		ns.buffer = items
	}
	t.st.Store(&ns)
	t.gcPending = false
	for _, l := range s.levels {
		if l != nil {
			l.FreePages() // structs stay intact for stale-snapshot readers
		}
	}
}

// enter loads a consistent state under a snapshot-reader bracket. The
// Enter precedes the load, so every page freed after the load is pinned
// until leave — a level in the loaded state stays traversable even while
// a concurrent carry replaces and frees it.
func (t *Tree) enter() (*state, uint64) {
	e := t.snap.SnapshotEnter()
	return t.st.Load(), e
}

// RunWindow is rtree.Tree.RunWindow over every live rectangle: it reports
// those intersecting q (or, when contain is true, fully contained in q)
// from the buffer, the in-flight carry's snapshot and each static level.
// Each level is queried with its optimal PR-tree bound, so the total cost
// is O(log(N/base) * sqrt(N/B) + T/B) I/Os. opt.Cancel is polled before
// the in-memory scan and before every node visit of every level;
// opt.Limit counts live results across all components. Node statistics
// sum over the levels. Safe to call concurrently with mutations and
// background carries.
func (t *Tree) RunWindow(q geom.Rect, contain bool, fn func(geom.Item) bool, opt rtree.RunOptions) (rtree.QueryStats, error) {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	var st rtree.QueryStats
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			return st, err
		}
	}
	// Buffer items are never tombstoned (Delete removes them physically
	// and Insert revives a dead id in place), so one dead filter serves
	// every component. visit stays on the stack: the levels' RunWindow
	// only calls it.
	stop := false
	visit := func(it geom.Item) bool {
		if _, gone := s.dead[it.ID]; gone {
			return true
		}
		st.Results++
		stop = (fn != nil && !fn(it)) || (opt.Limit > 0 && st.Results >= opt.Limit)
		return !stop
	}
	for _, mem := range [2][]geom.Item{s.buffer, s.merging} {
		for _, it := range mem {
			if matches(q, it.Rect, contain) && !visit(it) {
				return st, nil
			}
		}
	}
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		ls, err := l.RunWindow(q, contain, visit, rtree.RunOptions{Cancel: opt.Cancel})
		st.NodesVisited += ls.NodesVisited
		st.LeavesVisited += ls.LeavesVisited
		st.InternalVisited += ls.InternalVisited
		if err != nil || stop {
			return st, err
		}
	}
	return st, nil
}

// matches is the window (or containment) predicate RunWindow applies to
// in-memory items.
func matches(q, r geom.Rect, contain bool) bool {
	if contain {
		return q.Contains(r)
	}
	return q.Intersects(r)
}

// RunNearest is rtree.Tree.RunNearest over every live rectangle: the k
// closest to (x, y), in ascending (distance, id) order — the same
// deterministic order the static tree's best-first search emits, so
// dynamized results are comparable bit-for-bit with a one-shot build over
// the same live set. opt.Cancel is polled before the in-memory scan and
// passed to every level's search; opt.Limit caps k. Node statistics sum
// over the levels.
func (t *Tree) RunNearest(x, y float64, k int, opt rtree.RunOptions) ([]rtree.Neighbor, rtree.QueryStats, error) {
	var st rtree.QueryStats
	if opt.Limit > 0 && opt.Limit < k {
		k = opt.Limit
	}
	if k <= 0 {
		return nil, st, nil
	}
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			return nil, st, err
		}
	}
	var cand []rtree.Neighbor
	for _, mem := range [2][]geom.Item{s.buffer, s.merging} {
		for _, it := range mem {
			if _, gone := s.dead[it.ID]; !gone {
				cand = append(cand, rtree.Neighbor{Item: it, Dist2: rtree.PointRectDist2(x, y, it.Rect)})
			}
		}
	}
	// A level's k nearest may all be tombstoned, so over-fetch by the
	// tombstone count; the merge below filters and truncates.
	want := k + len(s.dead)
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		nb, ls, err := l.RunNearest(x, y, want, rtree.RunOptions{Cancel: opt.Cancel})
		st.NodesVisited += ls.NodesVisited
		st.LeavesVisited += ls.LeavesVisited
		st.InternalVisited += ls.InternalVisited
		if err != nil {
			return nil, st, err
		}
		for _, n := range nb {
			if _, gone := s.dead[n.Item.ID]; !gone {
				cand = append(cand, n)
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Dist2 != cand[j].Dist2 {
			return cand[i].Dist2 < cand[j].Dist2
		}
		return cand[i].Item.ID < cand[j].Item.ID
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	st.Results = len(cand)
	return cand, st, nil
}

// Flush compacts the structure into a single static PR-tree (plus an empty
// buffer), e.g. before a read-heavy phase. If a background carry is in
// flight, Flush waits for it to land first; callers that drive carries
// through a compactor should drain it before flushing (see
// compact.Compactor.Drain) so the wait cannot deadlock on the caller's own
// transaction bracket.
func (t *Tree) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.flight {
		t.idle.Wait()
	}
	t.rebuildLocked()
}

// Items returns every live rectangle.
func (t *Tree) Items() []geom.Item {
	s, e := t.enter()
	defer t.snap.SnapshotLeave(e)
	out := make([]geom.Item, 0, s.live)
	out = append(out, s.buffer...)
	for _, it := range s.merging {
		if _, gone := s.dead[it.ID]; !gone {
			out = append(out, it)
		}
	}
	for _, l := range s.levels {
		if l == nil {
			continue
		}
		for _, it := range l.Items() {
			if _, gone := s.dead[it.ID]; !gone {
				out = append(out, it)
			}
		}
	}
	return out
}

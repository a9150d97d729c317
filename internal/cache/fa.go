package cache

// FA is a small fully-associative LRU store over uint64 keys with a boolean
// (dirty) payload. It backs both the victim caches and the bypass buffer.
//
// The implementation is an intrusive doubly-linked list over a fixed slab
// plus a key index, so every operation is O(1) and steady-state operation
// performs no allocation. The index is an open-addressed hash table (linear
// probing, backward-shift deletion) kept at ≤ 25% load instead of a Go map:
// the bypass buffer is probed on every simulated access, and the custom
// table resolves the common miss with one or two slot loads.
type FA struct {
	capacity int
	entries  []faEntry
	head     int32 // most recently used
	tail     int32 // least recently used
	free     []int32

	slots    []faSlot // open-addressed index over entries, len power of two
	slotMask uint32
	n        int // resident entries
}

type faEntry struct {
	key        uint64
	dirty      bool
	prev, next int32
}

type faSlot struct {
	key uint64
	idx int32 // entry index, or faNil when the slot is empty
}

const faNil int32 = -1

// NewFA returns an empty store with the given capacity (> 0).
func NewFA(capacity int) *FA {
	if capacity <= 0 {
		panic("cache: FA capacity must be positive")
	}
	slots := 4
	for slots < 4*capacity {
		slots *= 2
	}
	f := &FA{
		capacity: capacity,
		entries:  make([]faEntry, capacity),
		head:     faNil,
		tail:     faNil,
		free:     make([]int32, 0, capacity),
		slots:    make([]faSlot, slots),
		slotMask: uint32(slots - 1),
	}
	for i := range f.slots {
		f.slots[i].idx = faNil
	}
	for i := capacity - 1; i >= 0; i-- {
		f.free = append(f.free, int32(i))
	}
	return f
}

// Len returns the number of resident entries.
func (f *FA) Len() int { return f.n }

// Capacity returns the configured capacity.
func (f *FA) Capacity() int { return f.capacity }

// home returns the preferred slot of key (Fibonacci hashing).
func (f *FA) home(key uint64) uint32 {
	return uint32(key*0x9E3779B97F4A7C15>>33) & f.slotMask
}

// lookup returns the slot index holding key, or the first empty slot of its
// probe chain (with found=false).
func (f *FA) lookup(key uint64) (slot uint32, found bool) {
	s := f.home(key)
	for {
		sl := &f.slots[s]
		if sl.idx == faNil {
			return s, false
		}
		if sl.key == key {
			return s, true
		}
		s = (s + 1) & f.slotMask
	}
}

// insertIndex maps key to entry index i.
func (f *FA) insertIndex(key uint64, i int32) {
	s, found := f.lookup(key)
	if !found {
		f.n++
	}
	f.slots[s] = faSlot{key: key, idx: i}
}

// deleteIndex removes key from the index using backward-shift deletion,
// which keeps probe chains contiguous without tombstones.
func (f *FA) deleteIndex(key uint64) {
	s, found := f.lookup(key)
	if !found {
		return
	}
	f.n--
	i := s
	j := s
	for {
		f.slots[i] = faSlot{idx: faNil}
		for {
			j = (j + 1) & f.slotMask
			sl := f.slots[j]
			if sl.idx == faNil {
				return
			}
			// sl can move back to the emptied slot i iff i lies
			// between sl's home position and j (cyclically);
			// otherwise moving it would break its probe chain.
			h := f.home(sl.key)
			if (j-h)&f.slotMask >= (j-i)&f.slotMask {
				f.slots[i] = sl
				i = j
				break
			}
		}
	}
}

func (f *FA) unlink(i int32) {
	e := &f.entries[i]
	if e.prev != faNil {
		f.entries[e.prev].next = e.next
	} else {
		f.head = e.next
	}
	if e.next != faNil {
		f.entries[e.next].prev = e.prev
	} else {
		f.tail = e.prev
	}
}

func (f *FA) pushFront(i int32) {
	e := &f.entries[i]
	e.prev = faNil
	e.next = f.head
	if f.head != faNil {
		f.entries[f.head].prev = i
	}
	f.head = i
	if f.tail == faNil {
		f.tail = i
	}
}

// Probe looks up key; on a hit it refreshes recency, ORs dirty into the
// stored payload, and returns the (updated) payload.
func (f *FA) Probe(key uint64, dirty bool) (wasDirty, hit bool) {
	s, ok := f.lookup(key)
	if !ok {
		return false, false
	}
	i := f.slots[s].idx
	f.entries[i].dirty = f.entries[i].dirty || dirty
	if f.head != i {
		f.unlink(i)
		f.pushFront(i)
	}
	return f.entries[i].dirty, true
}

// Contains reports residency without touching recency.
func (f *FA) Contains(key uint64) bool {
	_, ok := f.lookup(key)
	return ok
}

// Take removes key if present, returning its dirty payload.
func (f *FA) Take(key uint64) (dirty, ok bool) {
	s, present := f.lookup(key)
	if !present {
		return false, false
	}
	i := f.slots[s].idx
	dirty = f.entries[i].dirty
	f.unlink(i)
	f.deleteIndex(key)
	f.free = append(f.free, i)
	return dirty, true
}

// Insert installs key as most-recently-used, evicting the LRU entry if the
// store is full. The evicted key and payload are returned. Inserting a
// resident key refreshes it.
func (f *FA) Insert(key uint64, dirty bool) (evictedKey uint64, evictedDirty, evicted bool) {
	if s, ok := f.lookup(key); ok {
		i := f.slots[s].idx
		f.entries[i].dirty = f.entries[i].dirty || dirty
		if f.head != i {
			f.unlink(i)
			f.pushFront(i)
		}
		return 0, false, false
	}
	if len(f.free) == 0 {
		lru := f.tail
		evictedKey = f.entries[lru].key
		evictedDirty = f.entries[lru].dirty
		evicted = true
		f.unlink(lru)
		f.deleteIndex(evictedKey)
		f.free = append(f.free, lru)
	}
	i := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.entries[i] = faEntry{key: key, dirty: dirty, prev: faNil, next: faNil}
	f.insertIndex(key, i)
	f.pushFront(i)
	return evictedKey, evictedDirty, evicted
}

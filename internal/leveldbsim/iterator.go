package leveldbsim

import "sort"

// Iterator merges the memtable and every run in key order, newest version
// winning — the semantics of LevelDB's iterators
// used by the readseq and readreverse benchmarks. An Iterator is a
// snapshot: writes after NewIterator are not observed.
type Iterator struct {
	sources []iterSource // priority order: 0 = newest
	reverse bool
	key     []byte
	val     []byte
	err     error
}

type iterSource interface {
	// peek returns the current key, or ok=false when exhausted.
	peek() (key string, ok bool)
	// take consumes the current entry, returning its value.
	take() ([]byte, error)
}

// memIter iterates a sorted snapshot of the memtable.
type memIter struct {
	keys    []string
	vals    []string
	i       int
	reverse bool
}

func (m *memIter) peek() (string, bool) {
	if m.reverse {
		if m.i < 0 {
			return "", false
		}
		return m.keys[m.i], true
	}
	if m.i >= len(m.keys) {
		return "", false
	}
	return m.keys[m.i], true
}

func (m *memIter) take() ([]byte, error) {
	v := m.vals[m.i]
	if m.reverse {
		m.i--
	} else {
		m.i++
	}
	return []byte(v), nil
}

// sstIter iterates one immutable run.
type sstIter struct {
	r       *sstReader
	i       int
	reverse bool
}

func (s *sstIter) peek() (string, bool) {
	if s.reverse {
		if s.i < 0 {
			return "", false
		}
		return s.r.keys[s.i], true
	}
	if s.i >= len(s.r.keys) {
		return "", false
	}
	return s.r.keys[s.i], true
}

func (s *sstIter) take() ([]byte, error) {
	i := s.i
	if s.reverse {
		s.i--
	} else {
		s.i++
	}
	val := make([]byte, s.r.lens[i])
	if _, err := s.r.f.ReadAt(val, s.r.offs[i]); err != nil {
		return nil, err
	}
	return val, nil
}

// NewIterator creates a snapshot iterator over the whole store.
func (db *DB) NewIterator(reverse bool) *Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mi := &memIter{reverse: reverse}
	mi.keys = make([]string, 0, len(db.mem))
	for k := range db.mem {
		mi.keys = append(mi.keys, k)
	}
	sort.Strings(mi.keys)
	mi.vals = make([]string, len(mi.keys))
	for i, k := range mi.keys {
		mi.vals[i] = db.mem[k]
	}
	if reverse {
		mi.i = len(mi.keys) - 1
	}
	it := &Iterator{reverse: reverse}
	it.sources = append(it.sources, mi)
	for i := len(db.ssts) - 1; i >= 0; i-- { // newest first
		si := &sstIter{r: db.ssts[i], reverse: reverse}
		if reverse {
			si.i = len(db.ssts[i].keys) - 1
		}
		it.sources = append(it.sources, si)
	}
	return it
}

// Next advances to the next live pair, returning false at the end (or on
// error; see Err).
func (it *Iterator) Next() bool {
	best := ""
	found := false
	for _, s := range it.sources {
		k, ok := s.peek()
		if !ok {
			continue
		}
		if !found || (!it.reverse && k < best) || (it.reverse && k > best) {
			best, found = k, true
		}
	}
	if !found {
		return false
	}
	// Take from the highest-priority source holding the key; discard
	// shadowed versions in the others.
	var val []byte
	taken := false
	for _, s := range it.sources {
		k, ok := s.peek()
		if !ok || k != best {
			continue
		}
		v, err := s.take()
		if err != nil {
			it.err = err
			return false
		}
		if !taken {
			val, taken = v, true
		}
	}
	it.key, it.val = []byte(best), val
	return true
}

// Key returns the current key (valid after Next returns true).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.val }

// Err reports an I/O error that terminated iteration, if any.
func (it *Iterator) Err() error { return it.err }

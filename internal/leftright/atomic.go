package leftright

import "sync/atomic"

// atomicInstance is an atomic Instance value.
type atomicInstance struct {
	v atomic.Int32
}

func (a *atomicInstance) load() Instance   { return Instance(a.v.Load()) }
func (a *atomicInstance) store(i Instance) { a.v.Store(int32(i)) }

package cgraph

import (
	"slices"
	"sync"
)

// observers is a registry of callbacks on values of type T. fire calls
// them in registration order from a prebuilt list that add and unregister
// replace (never mutate), so the hot path takes the registry's own lock
// only to read one slice header and the callbacks run with it released.
type observers[T any] struct {
	mu   sync.Mutex
	seq  int
	list []observer[T]
}

type observer[T any] struct {
	id int
	fn func(T)
}

// add registers fn and returns its unregister func; a nil fn is ignored.
func (o *observers[T]) add(fn func(T)) (unregister func()) {
	if fn == nil {
		return func() {}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	id := o.seq
	o.seq++
	// Clip forces append to copy, so a list fire already read stays intact.
	o.list = append(slices.Clip(o.list), observer[T]{id, fn})
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.list = slices.DeleteFunc(slices.Clone(o.list), func(x observer[T]) bool { return x.id == id })
	}
}

// fire delivers v to every registered fn, in registration order.
func (o *observers[T]) fire(v T) {
	o.mu.Lock()
	list := o.list
	o.mu.Unlock()
	for _, x := range list {
		x.fn(v)
	}
}

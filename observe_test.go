package cgraph

import (
	"slices"
	"sync"
	"testing"
)

// TestObservers: callbacks run in registration order, a nil fn is ignored,
// unregister removes exactly its own fn (twice is harmless), and fire is
// safe against concurrent registration.
func TestObservers(t *testing.T) {
	var o observers[int]
	var got []int
	record := func(tag int) func(int) { return func(v int) { got = append(got, tag*100+v) } }
	o.add(nil)()
	un1 := o.add(record(1))
	o.add(record(2))
	un3 := o.add(record(3))
	o.fire(7)
	un1()
	un1()
	o.fire(8)
	un3()
	o.add(record(4))
	o.fire(9)
	if want := []int{107, 207, 307, 208, 308, 209, 409}; !slices.Equal(got, want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}

	var c observers[int]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				if g%2 == 0 {
					c.add(func(int) {})()
				} else {
					c.fire(i)
				}
			}
		}()
	}
	wg.Wait()
	if len(c.list) != 0 {
		t.Fatalf("%d observers left registered", len(c.list))
	}
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Any() {
		t.Fatal("new set should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestSetAllRespectsCapacity(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128, 129} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Fatalf("SetAll cap=%d: Count = %d", n, got)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(200)
	s.SetAll()
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Reset did not clear all bits")
	}
}

func TestRangeOrderAndStop(t *testing.T) {
	s := New(300)
	want := []int{2, 70, 150, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.Range(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	// Early stop after two elements.
	count := 0
	s.Range(func(int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("Range early stop visited %d, want 2", count)
	}
}

func TestNextSet(t *testing.T) {
	s := New(256)
	s.Set(5)
	s.Set(64)
	s.Set(200)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 200}, {200, 200}, {201, -1}, {256, -1},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestOrAndCopyAndSwap(t *testing.T) {
	a := New(100)
	a.Set(1)
	a.Set(2)
	c := New(100)
	c.CopyFrom(a)
	if c.Count() != 2 {
		t.Fatal("CopyFrom wrong count")
	}
	d := New(100)
	d.Set(50)
	c.Swap(d)
	if c.Count() != 1 || !c.Test(50) || d.Count() != 2 {
		t.Fatal("Swap did not exchange contents")
	}
}

// TestQuickAgainstMap property-tests the bitset against a map-based model.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 500
		s := New(n)
		m := map[int]bool{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := int(op) % n
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				m[i] = true
			case 1:
				s.Clear(i)
				delete(m, i)
			case 2:
				if s.Test(i) != m[i] {
					return false
				}
			}
		}
		if s.Count() != len(m) {
			return false
		}
		ok := true
		s.Range(func(i int) bool {
			if !m[i] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Any() {
		t.Error("fresh vector has bits set")
	}
	v.Set(0)
	v.Set(64)
	v.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Get(1) || v.Get(63) || v.Get(128) {
		t.Error("unexpected bit set")
	}
	if got := v.PopCount(); got != 3 {
		t.Errorf("popcount = %d", got)
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("clear failed")
	}
	v.SetTo(64, true)
	if !v.Get(64) {
		t.Error("SetTo(true) failed")
	}
	v.SetTo(64, false)
	if v.Get(64) {
		t.Error("SetTo(false) failed")
	}
}

func TestSetAllAndNotRespectLength(t *testing.T) {
	v := New(70)
	v.SetAll()
	if got := v.PopCount(); got != 70 {
		t.Errorf("popcount after SetAll = %d, want 70", got)
	}
	v.Not()
	if v.Any() {
		t.Error("Not(SetAll) left bits set")
	}
	v.Not()
	if got := v.PopCount(); got != 70 {
		t.Errorf("popcount after double Not = %d, want 70", got)
	}
	if !v.Equal(NewFull(70)) {
		t.Error("NewFull differs from SetAll")
	}
}

func TestBooleanOpsAndChangeReporting(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(3)
	a.Set(77)
	b.Set(77)
	b.Set(99)

	c := a.Copy()
	if changed := c.And(b); !changed {
		t.Error("And reported no change")
	}
	if !reflect.DeepEqual(c.Bits(), []int{77}) {
		t.Errorf("And bits = %v", c.Bits())
	}
	if changed := c.And(b); changed {
		t.Error("idempotent And reported change")
	}

	c = a.Copy()
	if changed := c.Or(b); !changed {
		t.Error("Or reported no change")
	}
	if !reflect.DeepEqual(c.Bits(), []int{3, 77, 99}) {
		t.Errorf("Or bits = %v", c.Bits())
	}

	c = a.Copy()
	if changed := c.AndNot(b); !changed {
		t.Error("AndNot reported no change")
	}
	if !reflect.DeepEqual(c.Bits(), []int{3}) {
		t.Errorf("AndNot bits = %v", c.Bits())
	}
}

func TestCopySemantics(t *testing.T) {
	a := New(10)
	a.Set(5)
	b := a.Copy()
	b.Set(6)
	if a.Get(6) {
		t.Error("Copy shares storage")
	}
	c := New(10)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Error("CopyFrom incomplete")
	}
}

func TestEqualLengthSensitive(t *testing.T) {
	if New(5).Equal(New(6)) {
		t.Error("vectors of different length equal")
	}
}

func TestForEachOrder(t *testing.T) {
	v := New(200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		v.Set(i)
	}
	if got := v.Bits(); !reflect.DeepEqual(got, want) {
		t.Errorf("Bits = %v, want %v", got, want)
	}
}

func TestNextVisitsSetBitsInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 200} {
		v := New(n)
		var want []int
		for i := 0; i < n; i += 1 + i%7 {
			v.Set(i)
			want = append(want, i)
		}
		var got []int
		for i := v.Next(0); i >= 0; i = v.Next(i + 1) {
			got = append(got, i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: Next walk = %v, want %v", n, got, want)
		}
		if v.Next(n) != -1 || v.Next(n+100) != -1 {
			t.Errorf("n=%d: Next past the end is not -1", n)
		}
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1)
	v.Set(3)
	if got := v.String(); got != "0101" {
		t.Errorf("String = %q", got)
	}
}

func TestMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And on mismatched lengths did not panic")
		}
	}()
	New(5).And(New(6))
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get out of range did not panic")
		}
	}()
	New(5).Get(5)
}

// Property: De Morgan over random vectors — ¬(a ∧ b) == ¬a ∨ ¬b.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%150 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.SetTo(i, rng.Intn(2) == 0)
			b.SetTo(i, rng.Intn(2) == 0)
		}
		left := a.Copy()
		left.And(b)
		left.Not()
		na, nb := a.Copy(), b.Copy()
		na.Not()
		nb.Not()
		na.Or(nb)
		return left.Equal(na)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PopCount(a ∨ b) + PopCount(a ∧ b) == PopCount(a) + PopCount(b).
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%150 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.SetTo(i, rng.Intn(2) == 0)
			b.SetTo(i, rng.Intn(2) == 0)
		}
		or, and := a.Copy(), a.Copy()
		or.Or(b)
		and.And(b)
		return or.PopCount()+and.PopCount() == a.PopCount()+b.PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

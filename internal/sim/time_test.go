package sim

import (
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Errorf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Second != 1e12*Picosecond {
		t.Errorf("Second = %d ps", int64(Second))
	}
}

func TestTimeAddSub(t *testing.T) {
	t0 := Time(0).Add(5 * Microsecond)
	if t0 != Time(5_000_000) {
		t.Fatalf("Add: got %d", int64(t0))
	}
	if d := t0.Sub(Time(1_000_000)); d != 4*Microsecond {
		t.Fatalf("Sub: got %v", d)
	}
	if !Time(1).Before(Time(2)) || Time(1).After(Time(2)) {
		t.Fatal("Before/After wrong")
	}
}

func TestTimeSeconds(t *testing.T) {
	tm := Time(0).Add(1500 * Millisecond)
	if got := tm.Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2ns"},
		{3 * Microsecond, "3us"},
		{4 * Millisecond, "4ms"},
		{5 * Second, "5s"},
		{-2 * Nanosecond, "-2ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRateTxTime(t *testing.T) {
	// 2048 bytes at 20 Gbit/s = 819.2 ns exactly.
	r := Gbps(20)
	if got := r.TxTime(2048); got != Duration(819200) {
		t.Fatalf("TxTime(2048) = %d ps, want 819200", int64(got))
	}
	if got := r.TxTime(0); got != 0 {
		t.Fatalf("TxTime(0) = %v", got)
	}
}

func TestRateGbpsRoundTrip(t *testing.T) {
	if g := Gbps(13.5).Gbps(); g != 13.5 {
		t.Fatalf("round trip = %v", g)
	}
}

func TestRateBytesIn(t *testing.T) {
	r := Gbps(8) // 1 byte per ns
	if got := r.BytesIn(1 * Microsecond); got != 1000 {
		t.Fatalf("BytesIn = %d", got)
	}
	if got := r.BytesIn(-Nanosecond); got != 0 {
		t.Fatalf("negative duration BytesIn = %d", got)
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Rate(0).TxTime(1)
}

// Property: TxTime is additive-ish and monotone in byte count.
func TestTxTimeMonotone(t *testing.T) {
	r := Gbps(20)
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return r.TxTime(x) <= r.TxTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: converting bytes->time->bytes is within one byte of identity
// at a rate where a byte is an integer number of picoseconds.
func TestRateRoundTrip(t *testing.T) {
	r := Gbps(8)
	f := func(n uint16) bool {
		d := r.TxTime(int(n))
		back := r.BytesIn(d)
		diff := back - int64(n)
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

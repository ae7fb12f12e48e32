// Package sim provides a deterministic discrete-event simulation kernel:
// an integer-picosecond clock, a future-event list implemented as a binary
// heap with stable FIFO tie-breaking, and seeded pseudo-random number
// streams. It plays the role the OMNeT++ platform plays for the original
// InfiniBand model the paper is based on.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, measured in integer picoseconds from
// the start of the simulation. Picosecond resolution represents every
// quantity in the model exactly (a 2048-byte packet at 20 Gbit/s
// serializes in 819.2 ns = 819200 ps).
type Time int64

// Duration is a span of simulated time in picoseconds. Time and Duration
// are distinct types so that absolute instants and spans cannot be mixed
// accidentally; arithmetic between them is provided by Add and Sub.
type Duration int64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the latest representable instant. It is used as an "infinitely
// far away" sentinel for timers that are not currently scheduled.
const MaxTime = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant with an adaptive unit, e.g. "12.8us".
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d >= Second:
		return fmt.Sprintf("%s%.6gs", neg, float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%s%.6gms", neg, float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%s%.6gus", neg, float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%s%.6gns", neg, float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	}
}

// Rate is a data rate in bits per second. It converts between byte counts
// and the simulated time they occupy on a link of this rate.
type Rate float64

// Gbps constructs a Rate from gigabits per second.
func Gbps(g float64) Rate { return Rate(g * 1e9) }

// Gbps returns the rate in gigabits per second.
func (r Rate) Gbps() float64 { return float64(r) / 1e9 }

// TxTime returns the time needed to serialize n bytes at rate r.
func (r Rate) TxTime(n int) Duration {
	if r <= 0 {
		panic("sim: TxTime on non-positive rate")
	}
	// bits / (bits/s) = seconds; scale to picoseconds with rounding.
	return Duration(math.Round(float64(n) * 8 * float64(Second) / float64(r)))
}

// BytesIn returns how many whole bytes rate r transfers in d.
func (r Rate) BytesIn(d Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(float64(r) * d.Seconds() / 8)
}

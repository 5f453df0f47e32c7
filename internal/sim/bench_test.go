package sim

import (
	"fmt"
	"testing"
)

// churnCB reschedules itself on every fire at a pseudo-random offset, so a
// run of Steps keeps the heap at a constant depth.
type churnCB struct {
	e *Engine
	x uint64 // xorshift state
}

func (c *churnCB) Fire(now Time, tag int) {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	c.e.ScheduleTag(now+1+Time(c.x%(200*uint64(Microsecond))), c, tag)
}

// BenchmarkEngine times one steady-state ScheduleTag+Step pair with the
// given number of events pending: 8 is about an SSD run's mean depth once
// arrivals are streamed (6.7 across a Figure 14 sweep) and 24 its bound for
// the default device (16 dies + 4 channel buses + 4 ECC units); 64 and 200k
// are kept for comparison with earlier results, 200k being what a run held
// when a whole trace was scheduled up front.
func BenchmarkEngine(b *testing.B) {
	for _, pending := range []int{8, 24, 64, 200_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := &Engine{}
			cb := &churnCB{e: e, x: 88172645463325252}
			for i := 0; i < pending; i++ {
				cb.Fire(0, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

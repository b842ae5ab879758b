package main

import (
	"slices"

	"repro/internal/sim"
)

// countingScheduler decorates the stock heap for the traced run. It
// forwards every call unchanged — the pop order is the heap's, which the
// traced run proves by reproducing the untraced run's digest — and counts
// and times the calls from outside: schedules, cancels, pops, the
// queue's peak length, host time inside the queue, and host time per
// fired event (the gap between two pops net of the queue calls in it).
//
//sttcp:allow simdeterminism traced-run probe: forwards to the stock heap unchanged, only counts and times the calls
type countingScheduler struct {
	inner sim.Scheduler

	schedules, cancels, pops int64
	scheduleNS, popNS        int64
	peak                     int

	// lastPop is when the previous Pop returned (0 before the first);
	// queueNS accumulates queue time since then.
	lastPop int64
	queueNS int64
	eventNS []uint32
}

func newCountingScheduler() *countingScheduler {
	return &countingScheduler{inner: sim.NewScheduler(sim.SchedulerHeap)}
}

func (c *countingScheduler) Kind() sim.SchedulerKind { return c.inner.Kind() }

func (c *countingScheduler) Len() int { return c.inner.Len() }

func (c *countingScheduler) Schedule(e *sim.Event) {
	t0 := hostNS()
	c.inner.Schedule(e)
	d := hostNS() - t0
	c.schedules++
	c.scheduleNS += d
	c.queueNS += d
	if n := c.inner.Len(); n > c.peak {
		c.peak = n
	}
}

func (c *countingScheduler) Cancel(e *sim.Event) {
	t0 := hostNS()
	c.inner.Cancel(e)
	c.cancels++
	c.queueNS += hostNS() - t0
}

func (c *countingScheduler) Peek() *sim.Event {
	t0 := hostNS()
	e := c.inner.Peek()
	c.queueNS += hostNS() - t0
	return e
}

func (c *countingScheduler) Pop() *sim.Event {
	t0 := hostNS()
	if c.lastPop != 0 {
		gap := t0 - c.lastPop - c.queueNS
		if gap < 0 {
			gap = 0
		}
		if gap > 1<<32-1 {
			gap = 1<<32 - 1
		}
		c.eventNS = append(c.eventNS, uint32(gap))
	}
	e := c.inner.Pop()
	t1 := hostNS()
	c.pops++
	c.popNS += t1 - t0
	c.lastPop, c.queueNS = t1, 0
	return e
}

// eventPercentiles returns the p50 and p99 host nanoseconds per fired
// event.
func (c *countingScheduler) eventPercentiles() (p50, p99 float64) {
	xs := slices.Clone(c.eventNS)
	slices.Sort(xs)
	return quantile(xs, 0.50), quantile(xs, 0.99)
}

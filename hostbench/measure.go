package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/sim"
)

// hostEpoch anchors hostNS. The benchmark measures how fast the
// simulator runs on the host, so it reads the wall clock — but only
// here, outside every simulated event's logic, never feeding a value
// back into a run.
var hostEpoch = time.Now() //sttcp:allow simdeterminism host-time measurement of the simulator, never fed into a run

// hostNS is monotonic host nanoseconds since hostEpoch.
func hostNS() int64 {
	return int64(time.Since(hostEpoch)) //sttcp:allow simdeterminism host-time measurement of the simulator, never fed into a run
}

// hostSeconds converts a hostNS difference to seconds.
func hostSeconds(ns int64) float64 { return float64(ns) / 1e9 }

// heapAllocs reads the Go runtime's cumulative heap allocation counters.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindUint64 {
			panic("hostbench: runtime metric " + x.Name + " unsupported")
		}
	}
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// timed is one measured run of a workload body.
type timed struct {
	out    outcome
	wallNS int64
	// allocBytes and allocObjects are heap allocations during the body.
	allocBytes, allocObjects uint64
}

// runOnce sets up an instance and times its body. The heap is collected
// first so every run starts from the same GC state; set-up is not timed
// here (see timeSetups).
func runOnce(sh shape, seed int64, custom func() sim.Scheduler, around func(func())) (*instance, timed, error) {
	in, err := setup(sh, seed, custom)
	if err != nil {
		return nil, timed{}, err
	}
	runtime.GC()
	b0, o0 := heapAllocs()
	var t0, t1 int64
	var runErr error
	body := func() {
		t0 = hostNS()
		runErr = in.drive()
		t1 = hostNS()
	}
	if around != nil {
		around(body)
	} else {
		body()
	}
	b1, o1 := heapAllocs()
	return in, timed{
		out:          in.check(runErr),
		wallNS:       t1 - t0,
		allocBytes:   b1 - b0,
		allocObjects: o1 - o0,
	}, nil
}

// timeSetups times back-to-back constructions of the shape's testbed
// for about 250 ms (at least 10, at most 2,000), after a forced GC and a
// few warm-up constructions, and returns the host seconds of each. The
// timed runs call it before every repetition, so set-up is sampled
// across the whole run rather than in one window of a noisy host.
func timeSetups(sh shape, seed int64) ([]float64, error) {
	const warmup, minReps, maxReps = 5, 10, 2000
	budget := int64(250 * time.Millisecond)
	runtime.GC()
	var xs []float64
	start := hostNS()
	for i := 0; len(xs) < maxReps && (len(xs) < minReps || hostNS()-start < budget); i++ {
		t0 := hostNS()
		if _, err := setup(sh, seed, nil); err != nil {
			return nil, err
		}
		if i >= warmup {
			xs = append(xs, hostSeconds(hostNS()-t0))
		}
	}
	return xs, nil
}

// median of xs (which it sorts in place); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted xs by the
// nearest-rank rule.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

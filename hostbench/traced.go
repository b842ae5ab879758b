package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"

	"repro/internal/app"
	"repro/internal/hb"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/sttcp"
	"repro/internal/tcp"
)

// perLayerNames lists every metric the traced run reports, in report
// order, with its unit.
func perLayerNames() []metricDef {
	var defs []metricDef
	for _, l := range allLayers() {
		defs = append(defs,
			metricDef{l + ".self_frac", "frac"},
			metricDef{l + ".total_frac", "frac"})
	}
	return append(defs,
		metricDef{"profile.samples", "count"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_segment", "count"},
		metricDef{"sim.schedule_ns", "ns"},
		metricDef{"sim.pop_ns", "ns"},
		metricDef{"sim.cancel_frac", "frac"},
		metricDef{"sim.queue_peak", "count"},
		metricDef{"sim.event_ns_p50", "ns"},
		metricDef{"sim.event_ns_p99", "ns"},
		metricDef{"sim.virtual_x", "s/s"},
		metricDef{"tcp.segments", "count"},
		metricDef{"tcp.retransmits", "count"},
		metricDef{"tcp.retransmit_frac", "frac"},
		metricDef{"tcp.suppressed", "count"},
		metricDef{"tcp.host_us_per_segment", "us"},
		metricDef{"tcp.codec_ns", "ns"},
		metricDef{"hb.sent", "count"},
		metricDef{"hb.codec_us_n250", "us"},
		metricDef{"hb.codec_us_n2000", "us"},
		metricDef{"sttcp.takeovers", "count"},
		metricDef{"sttcp.suspects", "count"},
		metricDef{"sttcp.conns_scan_us", "us"},
		metricDef{"sttcp.conns_scan_n", "count"},
		metricDef{"app.fill_ns_per_kib", "ns"},
		metricDef{"app.verify_ns_per_kib", "ns"},
		metricDef{"netem.frames", "count"},
		metricDef{"netem.drops", "count"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.events", "count"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.allocs_per_segment", "count"},
		metricDef{"runtime.alloc_bytes_per_segment", "bytes"},
		metricDef{"trace_overhead_frac", "frac"},
	)
}

// tracedRun runs the shape three times on the same seed: plain, for the
// host time and allocation figures; with the counting scheduler injected
// and the CPU profiler on, for the per-layer breakdown; and plain again,
// so the tracing overhead compares against both plain runs. All three
// must pass the gate with the same digest. Micro-timings of the layers'
// public functions follow.
func tracedRun(sh shape, seed int64) (map[string]float64, []timed, error) {
	_, plain, err := runOnce(sh, seed, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	cs := newCountingScheduler()
	var prof bytes.Buffer
	var profErr error
	in, traced, err := runOnce(sh, seed, func() sim.Scheduler { return cs }, func(body func()) {
		if profErr = pprof.StartCPUProfile(&prof); profErr != nil {
			return
		}
		body()
		pprof.StopCPUProfile()
	})
	if err != nil {
		return nil, nil, err
	}
	if profErr != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	_, plain2, err := runOnce(sh, seed, nil, nil)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	for _, l := range allLayers() {
		m[l+".self_frac"] = shares.self[l]
		m[l+".total_frac"] = shares.total[l]
	}
	m["profile.samples"] = float64(shares.samples)

	snap := in.tb.Metrics.Snapshot()
	segs := float64(traced.out.segments)
	perSeg := func(x float64) float64 {
		if segs == 0 {
			return 0
		}
		return x / segs
	}
	plainWall := hostSeconds(plain.wallNS+plain2.wallNS) / 2
	m["sim.events"] = float64(traced.out.events)
	m["sim.events_per_segment"] = perSeg(float64(traced.out.events))
	m["sim.schedule_ns"] = ratio(cs.scheduleNS, cs.schedules)
	m["sim.pop_ns"] = ratio(cs.popNS, cs.pops)
	m["sim.cancel_frac"] = ratio(cs.cancels, cs.schedules)
	m["sim.queue_peak"] = float64(cs.peak)
	m["sim.event_ns_p50"], m["sim.event_ns_p99"] = cs.eventPercentiles()
	m["sim.virtual_x"] = traced.out.virtual.Seconds() / plainWall

	m["tcp.segments"] = segs
	retx := float64(snap.CounterTotal("tcp.retransmits"))
	m["tcp.retransmits"] = retx
	m["tcp.retransmit_frac"] = perSeg(retx)
	m["tcp.suppressed"] = float64(snap.CounterTotal("tcp.segments_suppressed"))
	m["tcp.host_us_per_segment"] = perSeg(plainWall * 1e6)
	m["tcp.codec_ns"] = tcpCodecNS()

	m["hb.sent"] = float64(snap.CounterTotal("hb.sent"))
	m["hb.codec_us_n250"] = hbCodecNS(250) / 1e3
	m["hb.codec_us_n2000"] = hbCodecNS(2000) / 1e3

	m["sttcp.takeovers"] = float64(snap.CounterTotal("sttcp.takeovers"))
	m["sttcp.suspects"] = float64(snap.CounterTotal("sttcp.suspects"))
	holder := in.tb.PrimaryNode
	if in.tb.BackupNode.State() == sttcp.StateTakenOver {
		holder = in.tb.BackupNode
	}
	m["sttcp.conns_scan_n"] = float64(len(holder.Conns()))
	m["sttcp.conns_scan_us"] = perOpNS(func() { sinkConns = holder.Conns() }) / 1e3

	m["app.fill_ns_per_kib"], m["app.verify_ns_per_kib"] = patternNSPerKiB()

	m["netem.frames"] = float64(snap.CounterTotal("netem.link_frames"))
	m["netem.drops"] = float64(snap.CounterTotal("netem.link_drops"))
	m["trace.spans"] = float64(len(in.tb.Tracer.Spans()))
	m["trace.events"] = float64(in.tb.Tracer.Len())

	m["runtime.gc_cpu_frac"] = shares.gc
	m["runtime.allocs_per_segment"] = perSeg(float64(plain.allocObjects))
	m["runtime.alloc_bytes_per_segment"] = perSeg(float64(plain.allocBytes))
	m["trace_overhead_frac"] = 2*float64(traced.wallNS)/float64(plain.wallNS+plain2.wallNS) - 1
	return m, []timed{plain, traced, plain2}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Sinks keep the timed calls' results alive.
var (
	sinkConns []*tcp.Conn
	sinkBytes []byte
	sinkInt   int
	sinkErr   error
)

// perOpNS returns the median host nanoseconds per call of fn over seven
// batches, each sized to take about 10 ms.
func perOpNS(fn func()) float64 {
	n := 1
	for n < 1<<24 {
		t0 := hostNS()
		for i := 0; i < n; i++ {
			fn()
		}
		if hostNS()-t0 >= 10e6 {
			break
		}
		n *= 2
	}
	xs := make([]float64, 7)
	for b := range xs {
		t0 := hostNS()
		for i := 0; i < n; i++ {
			fn()
		}
		xs[b] = float64(hostNS()-t0) / float64(n)
	}
	return median(xs)
}

// tcpCodecNS times one full-MSS Segment.Encode plus tcp.Decode.
func tcpCodecNS() float64 {
	src, dst := ip.MakeAddr(10, 0, 0, 1), ip.MakeAddr(10, 0, 0, 100)
	seg := tcp.Segment{
		SrcPort: 49152, DstPort: 80, Seq: 1, Ack: 1,
		Flags: tcp.FlagACK, Window: 65535,
		Payload: make([]byte, tcp.DefaultMSS),
	}
	app.FillPattern(0, seg.Payload)
	return perOpNS(func() {
		sinkBytes = seg.Encode(src, dst)
		_, sinkErr = tcp.Decode(src, dst, sinkBytes)
	})
}

// hbCodecNS times hb.Message.Encode plus hb.Decode of one heartbeat
// carrying n connections.
func hbCodecNS(n int) float64 {
	msg := hb.Message{Role: hb.RolePrimary, Seq: 7, PingValid: true, PingOK: true, Conns: make([]hb.ConnState, n)}
	for i := range msg.Conns {
		msg.Conns[i] = hb.ConnState{
			RemoteAddr: ip.MakeAddr(10, 0, 0, 1), RemotePort: uint16(49152 + i), LocalPort: 80,
			ISS: uint32(i) * 7919, IRS: uint32(i) * 104729,
			LastByteReceived: uint32(i), LastAckReceived: uint32(i),
			LastAppByteWritten: uint32(i), LastAppByteRead: uint32(i),
			Established: true,
		}
	}
	return perOpNS(func() {
		sinkBytes, sinkErr = msg.Encode()
		if sinkErr == nil {
			var m hb.Message
			m, sinkErr = hb.Decode(sinkBytes)
			sinkInt = len(m.Conns)
		}
	})
}

// patternNSPerKiB times app.FillPattern and app.VerifyPattern over one
// 16 KiB server write chunk, per KiB.
func patternNSPerKiB() (fill, verify float64) {
	buf := make([]byte, 16<<10)
	const kib = 16
	fill = perOpNS(func() { app.FillPattern(12345, buf) }) / kib
	verify = perOpNS(func() { sinkInt = app.VerifyPattern(12345, buf) }) / kib
	return fill, verify
}

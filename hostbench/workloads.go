package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/sttcp"
)

// shape is the simulated input of one workload at one size.
type shape struct {
	// conns is how many client connections the run opens in total.
	conns int
	// lanes > 0 makes the load a closed loop: that many clients run at
	// once, and each dials again as soon as its response completes.
	// lanes == 0 is an open loop: dial i is due at i×gap.
	lanes int
	gap   time.Duration
	// bytes is each connection's response size.
	bytes int64
	// crashAfter > 0 crashes the primary's hardware that long after the
	// last dial is due; the run then lasts until the takeover settles.
	crashAfter time.Duration
	// fastHB puts the heartbeat on a 100 Mbit/s link instead of the
	// 115.2 kbit/s serial line (paper §3's advice beyond ~100 connections).
	fastHB bool
	// closeAfterServe makes both replicas' servers close each connection
	// after its response (server FIN gated through the heartbeat).
	closeAfterServe bool
	// observed turns on detailed tracing and 100 ms telemetry windows,
	// and extracts the failover anatomy and the telemetry timeline at
	// the end of the run.
	observed bool
}

// workload is one named, fixed simulated input at its benchmark size and
// at the tiny size the package test runs.
type workload struct {
	name string
	full shape
	tiny shape
}

var workloads = []workload{
	{
		// Demo 3's protected run: one large request, no faults.
		name: "stream",
		full: shape{conns: 1, bytes: 32 << 20},
		tiny: shape{conns: 1, bytes: 1 << 20},
	},
	{
		// The scale demo / legacy conns_at_scale shape.
		name: "fleet",
		full: shape{conns: 2000, gap: 500 * time.Microsecond, bytes: 32 << 10, crashAfter: time.Second, fastHB: true},
		tiny: shape{conns: 40, gap: 500 * time.Microsecond, bytes: 32 << 10, crashAfter: time.Second, fastHB: true},
	},
	{
		// Connection churn through the replica lifecycle.
		name: "churn",
		full: shape{conns: 500, lanes: 16, bytes: 16 << 10, fastHB: true, closeAfterServe: true},
		tiny: shape{conns: 48, lanes: 16, bytes: 16 << 10, fastHB: true, closeAfterServe: true},
	},
	{
		// Demo 2's shape (the default heartbeat is its 200 ms period)
		// with trace detail and telemetry on.
		name: "observed",
		full: shape{conns: 1, bytes: 12 << 20, crashAfter: 300 * time.Millisecond, observed: true},
		tiny: shape{conns: 1, bytes: 6 << 20, crashAfter: 300 * time.Millisecond, observed: true},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one constructed testbed with its servers attached, ready
// for its first dial.
type instance struct {
	shape   shape
	tb      *experiment.Testbed
	clients []*app.StreamClient
	start   time.Time
}

// setup builds the testbed, starts the ST-TCP pair and attaches the
// replicated data servers: everything before the first dial. custom, if
// non-nil, supplies the simulator's event queue.
func setup(sh shape, seed int64, custom func() sim.Scheduler) (*instance, error) {
	opts := experiment.Options{Seed: seed, CustomScheduler: custom}
	if sh.fastHB {
		opts.SerialRate = 100_000_000
	}
	if sh.observed {
		opts.TraceDetail = true
		opts.TelemetryWindow = 100 * time.Millisecond
	}
	tb := experiment.Build(opts)
	if err := tb.StartSTTCP(0, nil); err != nil {
		return nil, err
	}
	for _, n := range []*sttcp.Node{tb.PrimaryNode, tb.BackupNode} {
		srv := app.NewDataServer(n.Host().Name()+"/app", tb.Tracer)
		srv.CloseAfterServe = sh.closeAfterServe
		n.OnAccept = srv.Accept
	}
	return &instance{shape: sh, tb: tb, clients: make([]*app.StreamClient, 0, sh.conns)}, nil
}

// drive runs the workload from the first dial until the last client has
// verified its last byte and, when the workload crashes the primary,
// until the backup has taken over. For the observed workload it also
// extracts the failover anatomy and the telemetry timeline.
func (in *instance) drive() error {
	tb, sh := in.tb, in.shape
	in.start = tb.Sim.Now()
	var done int
	var dialErr error
	var dial func()
	dial = func() {
		cl := app.NewStreamClient(app.ClientConfig{
			Name: "client/app", Stack: tb.Client.TCP(),
			Service: experiment.ServiceAddr, Port: experiment.ServicePort,
			Request: sh.bytes, Tracer: tb.Tracer,
			Telemetry: tb.Telemetry.NewClientTrack(),
		})
		cl.OnDone = func(error) {
			if done++; done == sh.conns {
				tb.Sim.Stop()
				return
			}
			if sh.lanes > 0 && len(in.clients) < sh.conns {
				// Redial from a fresh event, not from inside the
				// finished connection's callback.
				tb.Sim.Schedule(0, dial)
			}
		}
		in.clients = append(in.clients, cl)
		if err := cl.Start(); err != nil && dialErr == nil {
			dialErr = fmt.Errorf("dial %d: %w", len(in.clients), err)
		}
	}
	if sh.lanes > 0 {
		for i := 0; i < sh.lanes && i < sh.conns; i++ {
			dial()
		}
	} else {
		for i := 0; i < sh.conns; i++ {
			tb.Sim.At(in.start.Add(time.Duration(i)*sh.gap), dial)
		}
	}
	if sh.crashAfter > 0 {
		last := in.start.Add(time.Duration(sh.conns-1) * sh.gap)
		tb.Sim.At(last.Add(sh.crashAfter), tb.Primary.CrashHW)
	}

	deadline := in.start.Add(30 * time.Minute)
	if err := tb.Sim.RunUntil(deadline); err != nil && !errors.Is(err, sim.ErrStopped) {
		return err
	}
	// Transfers may all drain before the crash: keep simulating in
	// slices until the takeover lands.
	for sh.crashAfter > 0 && tb.BackupNode.State() != sttcp.StateTakenOver && tb.Sim.Now().Before(deadline) {
		if err := tb.Sim.Run(100 * time.Millisecond); err != nil && !errors.Is(err, sim.ErrStopped) {
			return err
		}
	}
	if sh.observed {
		if len(tb.Tracer.Anatomy()) == 0 {
			return errors.New("no failover anatomy in the trace")
		}
		if tl := tb.Telemetry.Timeline(); tl == nil || len(tl.Series) == 0 {
			return errors.New("empty telemetry timeline")
		}
	}
	return dialErr
}

// outcome is the correctness verdict and virtual digest of one driven
// instance.
type outcome struct {
	attempted int
	ok        int
	problems  []string

	segments int64
	events   uint64
	virtual  time.Duration
	digest   string
}

// check applies the correctness gate to a driven instance; runErr is
// drive's result. Every client must be done with every byte
// pattern-verified and no error. stream and churn must see no suspicion
// and no takeover; fleet and observed exactly one takeover, with the
// backup taken over. A failed workload-level check fails every connection.
func (in *instance) check(runErr error) outcome {
	tb, sh := in.tb, in.shape
	snap := tb.Metrics.Snapshot()
	out := outcome{
		attempted: sh.conns,
		segments:  snap.CounterTotal("tcp.segments_sent"),
		events:    tb.Sim.Fired(),
		virtual:   tb.Sim.Now().Sub(in.start),
	}
	if runErr != nil {
		out.problems = append(out.problems, "run: "+runErr.Error())
	}
	if len(in.clients) != sh.conns {
		out.problems = append(out.problems, fmt.Sprintf("%d/%d clients dialed", len(in.clients), sh.conns))
	}
	for i, cl := range in.clients {
		if cl.Done && cl.Err == nil && cl.VerifyFailures == 0 && cl.Received == sh.bytes {
			out.ok++
		} else if len(out.problems) < 8 {
			out.problems = append(out.problems, fmt.Sprintf("client %d: done=%v err=%v verify_failures=%d received=%d/%d",
				i, cl.Done, cl.Err, cl.VerifyFailures, cl.Received, sh.bytes))
		}
	}
	takeovers, suspects := snap.CounterTotal("sttcp.takeovers"), snap.CounterTotal("sttcp.suspects")
	if sh.crashAfter > 0 {
		if takeovers != 1 || tb.BackupNode.State() != sttcp.StateTakenOver {
			out.problems = append(out.problems, fmt.Sprintf("want one takeover: takeovers=%d backup=%v", takeovers, tb.BackupNode.State()))
			out.ok = 0
		}
	} else if takeovers != 0 || suspects != 0 {
		out.problems = append(out.problems, fmt.Sprintf("fault-free run: takeovers=%d suspects=%d", takeovers, suspects))
		out.ok = 0
	}
	if runErr != nil {
		out.ok = 0
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "segments=%d events=%d virtual=%d\n", out.segments, out.events, out.virtual)
	// The connections' identities and initial sequence numbers are drawn
	// from the seed, so they tie the digest to the seed.
	for _, cl := range in.clients {
		if c := cl.Conn(); c != nil {
			fmt.Fprintf(h, "%v %d %d\n", c.ID(), c.ISS(), c.IRS())
		}
	}
	for _, s := range snap.Samples {
		if s.Type == "counter" {
			fmt.Fprintf(h, "%s %s %s %d\n", s.Component, s.Name, s.Labels, s.Value)
		}
	}
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	return out
}

// payloadMiB is the verified client payload one run of the shape moves.
func (sh shape) payloadMiB() float64 {
	return float64(int64(sh.conns)*sh.bytes) / (1 << 20)
}

// String renders the digest line printed after every run.
func (o outcome) String() string {
	return fmt.Sprintf("digest=%s segments=%d events=%d virtual=%v ok=%d/%d",
		o.digest, o.segments, o.events, o.virtual, o.ok, o.attempted)
}

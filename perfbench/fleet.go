package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"ampsched/internal/cluster"
	"ampsched/internal/experiments"
	"ampsched/internal/interval"
	"ampsched/internal/jobqueue"
	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

// fleet-skew: two cluster.Nodes over two server.Servers in this
// process, each with one queue worker, its own loopback listener and
// the other as a static peer. Clients spray jobs round-robin across
// the nodes with one job in fleetHotEvery pinned to a hot spec, so ring
// routing, forwarding, cross-node singleflight, remote lookup,
// replication and stealing all run.

const (
	fleetNodes = 2
	// fleetVNodes is cluster.Config's default virtual-node count; the
	// client classifies owners with a ring built the same way.
	fleetVNodes = 64
	// fleetPort is the first node's port. Ring placement hashes the node
	// addresses, so fixed addresses give every run the same ring; a
	// random port would re-deal key ownership, and with it the load
	// balance, on each run.
	fleetPort = 47310
)

// listenFleet listens on the fixed fleet port for node k, or on a free
// port when that one is taken (the ring then differs from other runs).
func listenFleet(k int, log io.Writer) (net.Listener, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", fleetPort+k))
	if err == nil {
		return ln, nil
	}
	fmt.Fprintf(log, "fleet node %d: %v; using a free port, so key ownership differs from other runs\n", k, err)
	return listen()
}

// fleetOptions reduce the simulation the way the ampfleet smoke test
// does (-limit 40000 -contextswitch 10000 -profilelimit 30000).
func fleetOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Fidelity = interval.FidelityInterval
	o.InstrLimit = 40_000
	o.ContextSwitch = 10_000
	o.ProfileInstrLimit = 30_000
	return o
}

// fleetNode is one fleet member and what serves it.
type fleetNode struct {
	addr string
	srv  *server.Server
	node *cluster.Node
	svc  *httpService
}

// stop shuts the node down: background loops, then HTTP, then the
// server.
func (n *fleetNode) stop() error {
	_ = n.node.Close() // always nil
	n.svc.stop()
	return n.srv.Close()
}

func startFleet(ctx context.Context, traced bool, log io.Writer) ([]*fleetNode, error) {
	lns := make([]net.Listener, fleetNodes)
	addrs := make([]string, fleetNodes)
	for k := range lns {
		ln, err := listenFleet(k, log)
		if err != nil {
			for _, l := range lns[:k] {
				l.Close()
			}
			return nil, err
		}
		lns[k], addrs[k] = ln, ln.Addr().String()
	}
	var nodes []*fleetNode
	for k, addr := range addrs {
		var tel *telemetry.Telemetry
		if traced {
			tel = telemetry.New()
		}
		srv, err := server.New(server.Config{
			BaseOptions: fleetOptions(),
			Queue:       jobqueue.Config{Workers: 1},
			Telemetry:   tel,
			JobIDSpace:  addr,
		})
		if err == nil {
			var node *cluster.Node
			node, err = cluster.New(srv, cluster.Config{
				Self: addr, Peers: addrs, VNodes: fleetVNodes,
				Heartbeat: 200 * time.Millisecond, StealInterval: 100 * time.Millisecond,
				Telemetry: tel,
			})
			if err == nil {
				nodes = append(nodes, &fleetNode{addr: addr, srv: srv, node: node, svc: serveOn(lns[k], node.Handler())})
				err = node.Start(ctx)
			} else {
				_ = srv.Close()
			}
		}
		if err != nil {
			for _, l := range lns[k:] {
				l.Close()
			}
			stopFleet(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

func stopFleet(nodes []*fleetNode) error {
	var first error
	for _, n := range nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fleetRing is the ring every node builds over the static membership.
func fleetRing(nodes []*fleetNode) *cluster.Ring {
	addrs := make([]string, len(nodes))
	for k, n := range nodes {
		addrs[k] = n.addr
	}
	return cluster.NewRing(addrs, fleetVNodes)
}

// ownedWarmup picks, for each node, a warm-up job over its share of
// the benchmarks that the ring assigns to that node, so each server
// profiles in set-up and the calibrations run on both nodes at once.
// Limits step down from below the timed jobs' limit until the owner
// matches.
func ownedWarmup(ring *cluster.Ring, nodes []*fleetNode, limit uint64) ([]server.JobSpec, error) {
	base := warmupSpecs(len(nodes), limit)
	out := make([]server.JobSpec, len(nodes))
	for k, n := range nodes {
		sp := base[k]
		for step := 1; ; step++ {
			if step > 256 {
				return nil, fmt.Errorf("no warm-up spec owned by %s", n.addr)
			}
			sp.InstrLimit = limit - uint64(step)
			if ring.Owner(cluster.JobKey([]server.JobSpec{sp})) == n.addr {
				break
			}
		}
		out[k] = sp
	}
	return out, nil
}

func runFleetSkew(ctx context.Context, cfg runConfig, tr *tracer) (*runResult, error) {
	res := &runResult{}
	opt := fleetOptions()
	nodeCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer interval.SetTelemetry(nil)
	start := time.Now()
	nodes, err := startFleet(nodeCtx, tr != nil, cfg.Log)
	if err != nil {
		return nil, fmt.Errorf("booting the fleet: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = stopFleet(nodes) // error path: the run already failed
		}
	}()
	ring := fleetRing(nodes)
	urls := make([]string, len(nodes))
	for k, n := range nodes {
		urls[k] = n.svc.url
		if got, want := n.node.Ring().Nodes(), ring.Nodes(); fmt.Sprint(got) != fmt.Sprint(want) {
			return nil, fmt.Errorf("node %s ring %v, want %v", n.addr, got, want)
		}
	}
	tr.add("setup", 0, "fleet boot", start, time.Now(), "")
	client := newAPIClient(cfg.Workers)
	defer client.close()

	warm, err := ownedWarmup(ring, nodes, opt.InstrLimit)
	if err != nil {
		return nil, err
	}
	warmErrs := make(chan error, len(nodes))
	for k := range nodes {
		go func(k int) {
			warmErrs <- runAll(ctx, client, tr, urls[k], "warm-up job", warm[k:k+1])
		}(k)
	}
	for range nodes {
		if werr := <-warmErrs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var before []snapshot
	if tr != nil {
		if before, err = metricsOf(ctx, client, urls); err != nil {
			return nil, err
		}
	}
	res.Setup = time.Since(cfg.Start)
	// nproc clients, not the sweep's one worker: cross-node singleflight
	// and work stealing only run with jobs in flight on both nodes.
	jobs, wall := closedLoop(ctx, cfg.Workers, cfg.Seconds, newFleetGen(cfg.Seed, opt.InstrLimit).job, sendJob(client, tr, urls))
	res.Wall = wall
	res.RSS = retainedRSSMiB()
	hashed, st := collectJobs(res, jobs, cfg)
	res.SHA, res.SHAOver = hashRecords(hashed), min(len(jobs), hashJobs)

	if tr != nil {
		after, err := metricsOf(ctx, client, urls)
		if err != nil {
			return nil, err
		}
		ds := deltasOf(before, after)
		res.Deltas = map[string]map[string]metricDelta{}
		for k, n := range nodes {
			res.Deltas["node "+n.addr] = ds[k]
		}
		res.Layers = map[string]float64{}
		serviceLayers(res.Layers, ds, after, res, st)
		clusterLayers(res.Layers, ds, jobs, ring, nodes, len(st.keys))
	}
	stopped = true
	if err := stopFleet(nodes); err != nil {
		return nil, fmt.Errorf("stopping the fleet: %w", err)
	}
	return res, checkJobs(res, jobs, opt, cfg, tr)
}

// clusterLayers fills the cluster per-layer metrics.
func clusterLayers(layers map[string]float64, ds deltaSet, jobs []loopJob, ring *cluster.Ring, nodes []*fleetNode, keys int) {
	// Forward cost: submit latency to a node that does not own the job
	// minus submit latency to its owner.
	var local, fwd []float64
	for _, lj := range jobs {
		if lj.Err != nil {
			continue
		}
		sub := ms(lj.Run.submit())
		if ring.Owner(cluster.JobKey([]server.JobSpec{lj.Job.Spec})) == nodes[lj.Node].addr {
			local = append(local, sub)
		} else {
			fwd = append(fwd, sub)
		}
	}
	if len(local) > 0 && len(fwd) > 0 {
		layers["cluster.forward_ms_p50"] = quantileOf(fwd, 0.5) - quantileOf(local, 0.5)
	}
	for _, name := range []string{"forwards", "forward_fallbacks", "replicas", "steals", "steals_granted",
		"steal_returns", "redispatches", "peer_suspects"} {
		layers["cluster."+name] = ds.sum("cluster." + name)
	}
	hits := ds.sum("cluster.remote_hits")
	layers["cluster.remote_hit_ratio"] = ratio(hits, hits+ds.sum("cluster.remote_misses"))
	// Pairs simulated per node: every compute at interval fidelity goes
	// through the node's pair batcher.
	var sims []float64
	var total float64
	for _, d := range ds {
		v := d["server.batched_pairs"].Value
		sims = append(sims, v)
		total += v
	}
	sort.Float64s(sims)
	layers["cluster.sims_per_key"] = ratio(total, float64(keys))
	layers["cluster.node_sim_share_max"] = ratio(sims[len(sims)-1], total)
}

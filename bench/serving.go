package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"dvfsroofline/internal/cli"
	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/serve"
	"dvfsroofline/internal/stats"
	"dvfsroofline/internal/units"
	"dvfsroofline/internal/workload"
)

// fleetConfig is the built-in 3-device fleet `energyload replay
// -inprocess` serves: the TK1 reference, a hot leaky bin, and a
// frequency-capped low-power SKU, each booting from a synthetic
// calibration.
func fleetConfig() fleet.FleetConfig {
	return fleet.FleetConfig{Devices: []fleet.Spec{
		{ID: "tk1-reference"},
		{ID: "tk1-binned-hot", Params: fleet.ParamsJSON{LeakProcWpV: 3.55, MiscW: 0.32}},
		{ID: "tk1-lowpower-sku", Params: fleet.ParamsJSON{SPpJ: 22.1, DRAMpJ: 318.5}, MaxCoreMHz: 612},
	}}
}

// server is one in-process energyd fleet and the target that drives it.
type server struct {
	reg *fleet.Registry
	tgt workload.HandlerTarget
}

// bootServer builds the fleet and its server: energyd's boot path.
func bootServer(seed int64) (*server, error) {
	opts := serve.Options{}
	reg, err := fleet.Build(fleetConfig(), experiments.Config{Seed: seed}, cli.LoadCalibration, opts.NodeOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: building fleet: %w", err)
	}
	return &server{reg: reg, tgt: workload.HandlerTarget{Handler: serve.NewFleet(reg, opts).Handler()}}, nil
}

// timedSetup runs setup n times and returns the last result with the
// median set-up time in seconds.
func timedSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, now().Sub(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// request is one energyd call: the op names the endpoint.
type request struct {
	op   workload.Op
	body []byte
}

// response is everything a caller sees of an answer.
type response struct {
	status int
	device string
	body   []byte
}

func (r response) equal(o response) bool {
	return r.status == o.status && r.device == o.device && bytes.Equal(r.body, o.body)
}

// send posts one request and times it. A transport error or a non-2xx
// status is a failed operation.
func (s *server) send(ctx context.Context, r request) (response, time.Duration, bool) {
	start := now()
	status, device, body, err := s.tgt.Do(ctx, r.op, "", r.body)
	d := now().Sub(start)
	resp := response{status: status, device: device, body: body}
	return resp, d, err == nil && okStatus(status)
}

// digest hashes responses in index order.
func digest(resps []response) string {
	h := sha256.New()
	for _, r := range resps {
		fmt.Fprintf(h, "%d %s %d\n", r.status, r.device, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// class is one kind of request in a pool's fixed mix.
type class struct {
	op    workload.Op
	full  bool // a sweep over the full 105-setting grid
	count int  // requests of the class per block
}

// warmBlock is the soak spec's base-rate mix — predict, fleet predict,
// autotune and place at 20 : 8 : 6 : 0.5 — with one sweep in four on
// the full grid, as generated: 276 requests. The mix is fixed rather
// than drawn because a full placement costs some twenty
// calibration-grid autotunes, and a drawn mix would move a run's cost
// from seed to seed. The seed still picks every request's profile and
// the order.
var warmBlock = []class{
	{workload.OpPredict, false, 160},
	{workload.OpFleetPredict, false, 64},
	{workload.OpAutotune, false, 36},
	{workload.OpAutotune, true, 12},
	{workload.OpFleetPlace, false, 3},
	{workload.OpFleetPlace, true, 1},
}

// coldBlock is warmBlock's sweep requests alone: 52 requests.
var coldBlock = warmBlock[2:]

// requestPool builds a workload's request pool: blocks of the warm or
// cold mix in a seeded order, with bodies taken in turn from the soak
// trace energyload generates for the seed. Cold sweep profiles are
// each scaled by a seeded factor in [0.5, 2), so no two cold requests
// share a sweep cache key and every one misses the cache; warm ones
// repeat the trace's few dozen profiles, which the caches hold.
func requestPool(seed int64, s Sizes, cold bool) ([]request, error) {
	tr, err := workload.Generate(workload.DefaultSpec(seed, s.TraceS))
	if err != nil {
		return nil, fmt.Errorf("bench: generating trace: %w", err)
	}
	var predicts, sweeps [][]byte
	for _, ev := range tr.Events {
		if ev.Op == workload.OpAutotune || ev.Op == workload.OpFleetPlace {
			sweeps = append(sweeps, ev.Body)
		} else {
			predicts = append(predicts, ev.Body)
		}
	}
	block, blocks := warmBlock, s.WarmBlocks
	if cold {
		block, blocks = coldBlock, s.ColdBlocks
	}
	if len(sweeps) == 0 || !cold && len(predicts) == 0 {
		return nil, fmt.Errorf("bench: a %g s trace has too few requests to draw from", s.TraceS)
	}
	var labels []class
	for b := 0; b < blocks; b++ {
		for _, c := range block {
			for k := 0; k < c.count; k++ {
				labels = append(labels, c)
			}
		}
	}
	rng := stats.NewRNG(stats.MixSeed(seed, 0x9001))
	out := make([]request, len(labels))
	np, ns := 0, 0
	for i, j := range rng.Perm(len(labels)) {
		c := labels[j]
		if c.op == workload.OpPredict || c.op == workload.OpFleetPredict {
			out[i] = request{op: c.op, body: predicts[np%len(predicts)]}
			np++
			continue
		}
		var body serve.AutotuneRequest
		if err := json.Unmarshal(sweeps[ns%len(sweeps)], &body); err != nil {
			return nil, fmt.Errorf("bench: decoding trace body: %w", err)
		}
		ns++
		body.Grid = ""
		if c.full {
			body.Grid = "full"
		}
		if cold {
			f := units.Count(0.5 + 1.5*rng.Float64())
			p := &body.Profile
			p.SP, p.DPFMA, p.DPAdd, p.DPMul, p.Int = f*p.SP, f*p.DPFMA, f*p.DPAdd, f*p.DPMul, f*p.Int
			p.SharedWords, p.L1Words, p.L2Words, p.DRAMWords = f*p.SharedWords, f*p.L1Words, f*p.L2Words, f*p.DRAMWords
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("bench: encoding sweep body: %w", err)
		}
		out[i] = request{op: c.op, body: b}
	}
	return out, nil
}

// warmUp answers the pool untimed and returns the answers, how many
// requests it sent and how many failed. A warm pool is answered twice,
// one request at a time, keeping the second pass, in which every sweep
// hits the cache; a cold pool once, by numClients clients, which also
// warms the process up.
func (s *server) warmUp(ctx context.Context, pool []request, cold bool) (ref []response, sent, failed int) {
	passes, clients := 2, 1
	if cold {
		passes, clients = 1, numClients
	}
	ref = make([]response, len(pool))
	for p := 0; p < passes; p++ {
		ph := closedLoopN(ctx, clients, len(pool), func(i int) (time.Duration, bool) {
			resp, d, ok := s.send(ctx, pool[i])
			ref[i] = resp
			return d, ok
		})
		sent += ph.ops
		failed += ph.failed
	}
	return ref, sent, failed
}

// runServe measures one serving workload: a closed loop of numClients
// clients cycling the pool until the run's time is up. Every answer must
// be byte-equal to the reference answer for the same request.
func runServe(ctx context.Context, cfg Config) (*Report, error) {
	srv, setupS, err := timedSetup(cfg.Sizes.SetupRuns, func() (*server, error) { return bootServer(cfg.Seed) })
	if err != nil {
		return nil, err
	}
	cold := cfg.Workload == ServeCold
	pool, err := requestPool(cfg.Seed, cfg.Sizes, cold)
	if err != nil {
		return nil, err
	}
	ref, sent, failed := srv.warmUp(ctx, pool, cold)
	n := len(pool)
	ph := closedLoop(ctx, numClients, cfg.duration(), func(i int) (time.Duration, bool) {
		resp, d, ok := srv.send(ctx, pool[i%n])
		return d, ok && resp.equal(ref[i%n])
	})
	rep := newReport(cfg)
	rep.addOps(sent, failed, "reference answers")
	rep.addOps(ph.ops, ph.failed, "measured answers")
	rep.checkDigest(digest(ref))
	rep.endToEnd(setupS, ph, fmt.Sprintf("%d-request pool, %d clients", n, numClients))
	return rep, nil
}

// okStatus reports a 2xx answer.
func okStatus(code int) bool { return code >= http.StatusOK && code < http.StatusMultipleChoices }

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/sim"
	"ctrpred/internal/workload"
)

// Kernel mix shared by the sweeps: read-mostly programs (mcf, vortex,
// vpr) and write-heavy ones (swim, bzip2, twolf, gzip), so counters both
// sit still and drift past the prediction window.
var sweepKernels = []string{"bzip2", "gzip", "mcf", "swim", "twolf", "vortex", "vpr"}

// simWorkload is one simulator grid: every kernel × scheme cell under a
// few seeds derived from the run seed.
type simWorkload struct {
	name    string
	kernels []string
	schemes []sim.Scheme
	// config builds the cell's machine configuration.
	config func(sch sim.Scheme, seed uint64) sim.Config
	// seeds is how many derived seeds a run cycles through. Each seed
	// is one set-up repetition: set-up is timed once per seed, and the
	// timed passes rotate over the seeds with their templates warm.
	seeds int
	// freshMachines marks a grid whose machines share no aged state, so
	// every timed pass sets the grid up again and counts as one more
	// set-up repetition.
	freshMachines bool
	// cellLimit is the latency a cell must finish within to count
	// toward goodput.
	cellLimit time.Duration
	// capture names the cell whose inputs the traced run replays
	// through the layers.
	captureKernel string
	captureScheme sim.Scheme
	// referenceKernel's cell under the last scheme is rerun with
	// Config.Reference.
	referenceKernel string
	// figures lists experiment ids whose series the grid must
	// reproduce for one kernel (empty: no cross-check).
	figures []string
}

const (
	figureL2 = 256 << 10
	// Scale of the sweeps: footprints well past the 512 KB
	// sequence-number cache, windows short enough for many passes a run.
	sweepFootprint    = 2 << 20
	sweepInstructions = 20_000 // ×20 in HitRate mode, as the figures do
	hitRateWindow     = 20
	perfInstructions  = 100_000
	// minSetups is the fewest set-up repetitions a run's setup_s is the
	// median of.
	minSetups = 3
)

// hitRateConfig mirrors the experiments package's HitRate-mode figure
// configuration (Figures 7, 8, 12–14).
func hitRateConfig(sch sim.Scheme, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sch).WithL2(figureL2).WithMode(sim.HitRate)
	cfg.Scale = workload.Scale{Footprint: sweepFootprint, Instructions: sweepInstructions * hitRateWindow}
	cfg.Seed = seed
	cfg.SelfCheck = false
	cfg.Mem.FlushInterval = cfg.Scale.Instructions / 20
	return cfg.WithEngine(cryptoengine.Spec{})
}

// perfConfig mirrors the experiments package's Performance-mode figure
// configuration (Figures 10, 11, 15, 16), self-check on.
func perfConfig(sch sim.Scheme, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(sch).WithL2(figureL2)
	cfg.Scale = workload.Scale{Footprint: sweepFootprint, Instructions: perfInstructions}
	cfg.Seed = seed
	cfg.Mem.FlushInterval = cfg.Scale.Instructions / 10
	return cfg.WithEngine(cryptoengine.Spec{})
}

// integrityConfig is a Performance-mode run with the hash tree attached.
func integrityConfig(sch sim.Scheme, seed uint64) sim.Config {
	cfg := perfConfig(sch, seed).WithIntegrity()
	cfg.Scale.Footprint = 256 << 10
	cfg.Scale.Instructions = 10_000
	cfg.Mem.FlushInterval = cfg.Scale.Instructions / 10
	return cfg
}

func simWorkloads() map[string]*simWorkload {
	return map[string]*simWorkload{
		"hitrate-sweep": {
			name:    "hitrate-sweep",
			kernels: sweepKernels,
			schemes: []sim.Scheme{
				sim.SchemeSeqCache(128 << 10),
				sim.SchemeSeqCache(512 << 10),
				sim.SchemePred(predictor.SchemeRegular),
				sim.SchemePred(predictor.SchemeTwoLevel),
				sim.SchemePred(predictor.SchemeContext),
			},
			config:          hitRateConfig,
			seeds:           2,
			cellLimit:       2 * time.Second,
			captureKernel:   "swim",
			captureScheme:   sim.SchemePred(predictor.SchemeContext),
			referenceKernel: "gzip",
			figures:         []string{"fig7", "fig12"},
		},
		"ipc-sweep": {
			name:    "ipc-sweep",
			kernels: sweepKernels,
			schemes: []sim.Scheme{
				sim.SchemeBaseline(),
				sim.SchemeSeqCache(4 << 10),
				sim.SchemePred(predictor.SchemeRegular),
				sim.SchemePred(predictor.SchemeContext),
			},
			config:          perfConfig,
			seeds:           2,
			cellLimit:       2 * time.Second,
			captureKernel:   "swim",
			captureScheme:   sim.SchemePred(predictor.SchemeContext),
			referenceKernel: "gzip",
			figures:         []string{"fig10", "fig15"},
		},
		"integrity": {
			name:    "integrity",
			kernels: []string{"mcf", "swim"},
			schemes: []sim.Scheme{
				sim.SchemeBaseline(),
				sim.SchemePred(predictor.SchemeRegular),
			},
			config:          integrityConfig,
			seeds:           8,
			freshMachines:   true,
			cellLimit:       10 * time.Second,
			captureKernel:   "swim",
			captureScheme:   sim.SchemePred(predictor.SchemeRegular),
			referenceKernel: "mcf",
		},
	}
}

// derivedSeed maps the run seed and a repetition index to a simulator
// seed (never 0, which the library reads as "default").
func derivedSeed(seed uint64, rep int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(rep+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return x%1_000_000 + 1
}

type cellKey struct {
	kernel string
	scheme string
	seed   uint64
}

// cellRun is one timed cell.
type cellRun struct {
	key        cellKey
	pred       bool // the scheme predicts counters
	newMachine time.Duration
	run        time.Duration
	res        sim.Result
	dtlbMisses uint64
}

// passRun is one timed pass over the grid: its cells and wall time.
type passRun struct {
	cells []cellRun
	wall  time.Duration
}

// passes are the timed passes of one measurement window.
type passes []passRun

func (ps passes) cells() []cellRun {
	var all []cellRun
	for _, p := range ps {
		all = append(all, p.cells...)
	}
	return all
}

// utilization is Σ cell time ÷ (Σ pass wall × workers).
func (ps passes) utilization() float64 {
	var busy, wall time.Duration
	for _, p := range ps {
		wall += p.wall
		for _, c := range p.cells {
			busy += c.newMachine + c.run
		}
	}
	return busy.Seconds() / (wall.Seconds() * float64(nproc()))
}

// runCell builds a fresh machine and runs it, timing both halves.
func runCell(ctx context.Context, tr *tracer, parent int64, k cellKey, cfg sim.Config) (cellRun, error) {
	cr := cellRun{key: k, pred: cfg.Scheme.Pred != predictor.SchemeNone}
	id := tr.begin("sim.NewMachine", parent)
	t0 := time.Now()
	m, err := sim.NewMachine(k.kernel, cfg)
	t1 := time.Now()
	tr.end(id, 1)
	if err != nil {
		return cr, err
	}
	defer m.Close()
	id = tr.begin("cpu.Run", parent)
	t2 := time.Now()
	res, err := m.RunContext(ctx)
	t3 := time.Now()
	tr.end(id, 1)
	cr.newMachine, cr.run, cr.res = t1.Sub(t0), t3.Sub(t2), res
	_, dtlb := m.Sys.TLBs()
	cr.dtlbMisses = dtlb.Stats().Misses
	return cr, err
}

// pass runs the grid for one seed across nproc workers.
func (w *simWorkload) pass(ctx context.Context, tr *tracer, parent int64, seed uint64) ([]cellRun, time.Duration, error) {
	id := tr.begin("runpool.RunContext", parent)
	var jobs []runpool.Job[cellRun]
	for _, kern := range w.kernels {
		for _, sch := range w.schemes {
			k := cellKey{kernel: kern, scheme: sch.Name, seed: seed}
			cfg := w.config(sch, seed)
			jobs = append(jobs, runpool.Job[cellRun]{
				Label: kern + "/" + sch.Name,
				Fn: func(ctx context.Context) (cellRun, error) {
					return runCell(ctx, tr, id, k, cfg)
				},
			})
		}
	}
	t0 := time.Now()
	cells, err := runpool.RunContext(ctx, runpool.Options{Workers: nproc()}, jobs)
	wall := time.Since(t0)
	tr.end(id, int64(len(jobs)))
	return cells, wall, err
}

// setup builds every cell's machine once per seed, timing it: the first
// machine of a kernel and seed pays its template build. It returns the
// set-up seconds of each repetition and, per kernel and seed, the time of
// that first machine.
func (w *simWorkload) setup(tr *tracer, parent int64, seeds []uint64) (reps []float64, first map[cellKey]float64, err error) {
	first = make(map[cellKey]float64)
	for _, seed := range seeds {
		rep := tr.begin("setup", parent)
		total := 0.0
		for _, kern := range w.kernels {
			for i, sch := range w.schemes {
				id := tr.begin("sim.NewMachine", rep)
				t0 := time.Now()
				m, err := sim.NewMachine(kern, w.config(sch, seed))
				d := time.Since(t0).Seconds()
				tr.end(id, 1)
				if err != nil {
					return nil, nil, err
				}
				m.Close()
				total += d
				if i == 0 {
					first[cellKey{kernel: kern, scheme: sch.Name, seed: seed}] = d
				}
			}
		}
		tr.end(rep, 1)
		reps = append(reps, total)
	}
	return reps, first, nil
}

// templateBuildMS estimates each template build: the set-up's first
// machine of a kernel and seed less the median time the same cell's
// machine took in the timed passes, with its template warm.
func templateBuildMS(first map[cellKey]float64, cells []cellRun) []float64 {
	warm := make(map[cellKey][]float64)
	for _, c := range cells {
		warm[c.key] = append(warm[c.key], c.newMachine.Seconds())
	}
	var ms []float64
	for k, d := range first {
		if w := warm[k]; len(w) > 0 {
			ms = append(ms, 1e3*(d-median(w)))
		}
	}
	return ms
}

// measure runs timed passes, rotating over the seeds, until the window
// has elapsed; every pass started finishes.
func (w *simWorkload) measure(ctx context.Context, tr *tracer, seeds []uint64, window time.Duration) (passes, error) {
	var ps passes
	root := tr.begin("measure", 0)
	defer tr.end(root, 1)
	deadline := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cells, wall, err := w.pass(ctx, tr, root, seeds[i%len(seeds)])
		if err != nil {
			return ps, err
		}
		ps = append(ps, passRun{cells: cells, wall: wall})
	}
	return ps, nil
}

// signature is the part of a result that must repeat exactly whenever
// the same cell runs again.
type signature struct {
	instr, cycles, fetches, predHits, guesses, evictions, dram uint64
}

func sigOf(r sim.Result) signature {
	return signature{r.CPU.Instructions, r.CPU.Cycles, r.Ctrl.Fetches, r.Ctrl.PredHits,
		r.Pred.Guesses, r.Ctrl.Evictions, r.DRAM.Reads + r.DRAM.Writes}
}

// runSimWorkload runs one simulator workload and fills o.
func runSimWorkload(ctx context.Context, w *simWorkload, seed uint64, window time.Duration, traced bool, log io.Writer, o *outcome) (*tracer, error) {
	seeds := make([]uint64, w.seeds)
	for i := range seeds {
		seeds[i] = derivedSeed(seed, i)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up is timed once per derived seed, for at least minSetups
	// seeds. The seeds no pass uses go first, so that the passes' own
	// templates are the newest in the simulator's FIFO template cache.
	var setupSeeds []uint64
	for i := w.seeds; i < minSetups; i++ {
		setupSeeds = append(setupSeeds, derivedSeed(seed, i))
	}
	setupReps, firstNM, err := w.setup(tr, 0, append(setupSeeds, seeds...))
	if err != nil {
		return tr, fmt.Errorf("set-up: %w", err)
	}

	var ps, checked passes
	if traced {
		// The untraced half of the window is the baseline the tracing
		// overhead is measured against.
		plain, err := w.measure(ctx, nil, seeds, window/2)
		if err != nil {
			return tr, err
		}
		ps, err = w.measure(ctx, tr, seeds, window/2)
		if err != nil {
			return tr, err
		}
		checked = plain
		a, b := instrRate(plain), instrRate(ps)
		o.set("trace.overhead_pct", 100*(a-b)/a)
		fmt.Fprintf(log, "tracing overhead: untraced %.6g sim_instrs/s, traced %.6g sim_instrs/s\n", a, b)
	} else {
		ps, err = w.measure(ctx, nil, seeds, window)
		if err != nil {
			return tr, err
		}
	}

	// Correctness, untimed. Every cell: no pad reuse, no self-check
	// failure, no tamper detected on clean memory, and a repeat of a
	// cell reproduces its first run exactly.
	first := make(map[cellKey]cellRun)
	var order []cellKey
	for _, c := range append(checked, ps...).cells() {
		r := c.res
		tampers := r.Ctrl.TamperDetected
		if r.Integrity != nil {
			tampers += r.Integrity.TamperDetected
		}
		o.check(r.PadViolations == 0 && r.Ctrl.SelfCheckFails == 0 && tampers == 0,
			"%v: pad violations %d, self-check failures %d, tampers %d", c.key, r.PadViolations, r.Ctrl.SelfCheckFails, tampers)
		if f, ok := first[c.key]; ok {
			o.check(sigOf(f.res) == sigOf(r), "%v: repeat run differs from the first", c.key)
		} else {
			first[c.key] = c
			order = append(order, c.key)
		}
	}
	// Digest of every distinct cell's snapshot, in grid order.
	h := sha256.New()
	var encMS []float64
	var ipcs, preds []float64
	for _, k := range order {
		r := first[k].res
		id := tr.begin("stats.Snapshot.JSON", 0)
		t0 := time.Now()
		b, err := r.Snapshot().JSON()
		encMS = append(encMS, float64(time.Since(t0))/1e6)
		tr.end(id, 1)
		if err != nil {
			return tr, err
		}
		h.Write(b)
		ipcs = append(ipcs, r.IPC())
		if first[k].pred {
			preds = append(preds, r.PredRate())
		}
	}
	fmt.Fprintf(log, "simulated-stats digest %s: %x over %d distinct cells\n", w.name, h.Sum(nil), len(order))
	fmt.Fprintf(log, "ipc_gmean exact %.17g  pred_rate_mean exact %.17g\n", gmean(ipcs), mean(preds))

	if err := w.referenceCheck(ctx, seeds[0], first, o); err != nil {
		return tr, err
	}
	for _, id := range w.figures {
		if err := w.figureCheck(ctx, id, seeds[0], first, o); err != nil {
			return tr, err
		}
	}

	// Timing. A pass regenerates the grid for one seed; its wall time is
	// the sweep's latency. Rates are medians over passes, so a pass the
	// host slowed moves them less than a mean would.
	var lats, goodput, maxRate []float64
	for _, p := range ps {
		var cellLat []float64
		good := 0
		for _, c := range p.cells {
			lat := c.newMachine + c.run
			cellLat = append(cellLat, float64(lat)/1e6)
			if lat <= w.cellLimit {
				good++
			}
		}
		lats = append(lats, float64(p.wall)/1e6)
		goodput = append(goodput, float64(good)/p.wall.Seconds())
		maxRate = append(maxRate, float64(nproc())/(median(cellLat)/1e3))
	}
	if o.failed > 0 {
		goodput = []float64{0} // a failed check spoils goodput
	}
	if w.freshMachines {
		for _, p := range append(checked, ps...) {
			var nm time.Duration
			for _, c := range p.cells {
				nm += c.newMachine
			}
			setupReps = append(setupReps, nm.Seconds())
		}
	}
	o.set("setup_s", median(setupReps))
	o.set("sim_instrs_per_s", instrRate(ps))
	o.set("ipc_gmean", gmean(ipcs))
	o.set("pred_rate_mean", mean(preds))
	o.set("lat_p50_ms", median(lats))
	tv, pct, ok := tail(lats)
	if !ok {
		return tr, fmt.Errorf("only %d timed passes; need more than 10 for a tail", len(lats))
	}
	o.set("lat_tail_ms", tv)
	fmt.Fprintf(log, "lat_tail_ms is p%.2f of %d passes (10 beyond it); %d cells, cell latency limit %v\n", pct, len(lats), len(ps.cells()), w.cellLimit)
	o.set("goodput_rps", median(goodput))
	o.set("max_rate_rps", median(maxRate))
	rss, err := peakRSSMB()
	if err != nil {
		return tr, err
	}
	o.set("peak_rss_mb", rss)

	if traced {
		setLayerCounts(o, ps.cells(), ps.utilization(), templateBuildMS(firstNM, ps.cells()), encMS)
		if err := probeLayers(ctx, tr, w.captureKernel, w.config(w.captureScheme, seeds[0]), o); err != nil {
			return tr, err
		}
		zeroServiceLayers(o)
	}
	return tr, nil
}

// instrRate is simulated instructions per host second of Machine.Run,
// the median over passes.
func instrRate(ps passes) float64 {
	var rates []float64
	for _, p := range ps {
		var instr, ns float64
		for _, c := range p.cells {
			instr += float64(c.res.CPU.Instructions)
			ns += float64(c.run)
		}
		rates = append(rates, instr/(ns/1e9))
	}
	return median(rates)
}

// referenceCheck reruns one cell with Config.Reference and requires a
// byte-identical snapshot.
func (w *simWorkload) referenceCheck(ctx context.Context, seed uint64, first map[cellKey]cellRun, o *outcome) error {
	sch := w.schemes[len(w.schemes)-1]
	k := cellKey{kernel: w.referenceKernel, scheme: sch.Name, seed: seed}
	fast, ok := first[k]
	if !ok {
		o.check(false, "%v: reference cell was never timed", k)
		return nil
	}
	cfg := w.config(sch, seed)
	cfg.Reference = true
	ref, err := sim.RunContext(ctx, k.kernel, cfg)
	if err != nil {
		return fmt.Errorf("reference run %v: %w", k, err)
	}
	a, err := fast.res.Snapshot().JSON()
	if err != nil {
		return err
	}
	b, err := ref.Snapshot().JSON()
	if err != nil {
		return err
	}
	o.check(bytes.Equal(a, b), "%v: snapshot differs from the Config.Reference run", k)
	return nil
}

// figureCheck regenerates one figure through the experiments package
// for the first kernel and requires the grid's cells to reproduce its
// series: the benchmark's cells are the figure's cells.
func (w *simWorkload) figureCheck(ctx context.Context, id string, seed uint64, first map[cellKey]cellRun, o *outcome) error {
	kern := w.kernels[0]
	opt := experiments.DefaultOptions()
	opt.Benchmarks = []string{kern}
	opt.Scale = workload.Scale{Footprint: sweepFootprint, Instructions: sweepInstructions}
	if id == "fig10" || id == "fig15" {
		opt.Scale.Instructions = perfInstructions
	}
	opt.Seed = seed
	opt.Workers = nproc()
	fig, err := experiments.ByID(ctx, id, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	var oracle float64
	if opt.Scale.Instructions == perfInstructions {
		r, err := sim.RunContext(ctx, kern, perfConfig(sim.SchemeOracle(), seed))
		if err != nil {
			return err
		}
		oracle = r.IPC()
	}
	want := map[string]sim.Scheme{}
	switch id {
	case "fig7":
		want["128K_Seq#_Cache"] = sim.SchemeSeqCache(128 << 10)
		want["512K_Seq#_Cache"] = sim.SchemeSeqCache(512 << 10)
		want["Pred"] = sim.SchemePred(predictor.SchemeRegular)
	case "fig12":
		want["Regular"] = sim.SchemePred(predictor.SchemeRegular)
		want["Two-level"] = sim.SchemePred(predictor.SchemeTwoLevel)
		want["Context"] = sim.SchemePred(predictor.SchemeContext)
	case "fig10":
		want["Seq_Cache_4K"] = sim.SchemeSeqCache(4 << 10)
		want["Pred"] = sim.SchemePred(predictor.SchemeRegular)
	case "fig15":
		want["Regular"] = sim.SchemePred(predictor.SchemeRegular)
		want["Context"] = sim.SchemePred(predictor.SchemeContext)
	}
	for series, sch := range want {
		c, ok := first[cellKey{kernel: kern, scheme: sch.Name, seed: seed}]
		if !ok {
			o.check(false, "%s %s: cell was never timed", id, series)
			continue
		}
		r := c.res
		var got float64
		switch {
		case oracle != 0:
			got = r.IPC() / oracle
		case sch.Pred != predictor.SchemeNone:
			got = r.PredRate()
		default:
			got = r.SeqHitRate()
		}
		exp := fig.Series[series][kern]
		o.check(got == exp, "%s %s/%s: grid cell gives %v, experiments gives %v", id, kern, series, got, exp)
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"time"

	"ctrpred/internal/cache"
	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/integrity"
	"ctrpred/internal/predictor"
	"ctrpred/internal/seqcache"
	"ctrpred/internal/sha256"
	"ctrpred/internal/sim"
	"ctrpred/internal/tlb"
)

// maxCapturedRefs bounds the reference stream a probe replays.
const maxCapturedRefs = 200_000

type ref struct {
	addr  uint64
	write bool
}

// captured is what one workload cell fed its layers, recorded through
// the simulator's public observation hooks.
type captured struct {
	refs     []ref    // data references entering the hierarchy (memsys sink)
	fetchLat []uint64 // every encrypted fetch's latency (secmem observer)
}

// capture runs one cell with the reference sink and fetch observer
// attached and returns what they saw.
func capture(ctx context.Context, kernel string, cfg sim.Config) (captured, error) {
	var c captured
	m, err := sim.NewMachine(kernel, cfg)
	if err != nil {
		return c, err
	}
	defer m.Close()
	m.Sys.SetReferenceSink(func(addr uint64, write bool) {
		if len(c.refs) < maxCapturedRefs {
			c.refs = append(c.refs, ref{addr, write})
		}
	})
	m.Ctrl.SetFetchObserver(func(lat uint64) { c.fetchLat = append(c.fetchLat, lat) })
	_, err = m.RunContext(ctx)
	return c, err
}

// lineEvent is one line-granular access below L2: a fetch of a missed
// line or the writeback of a dirty one.
type lineEvent struct {
	la    uint64
	evict bool
}

// clockCost estimates one clock read, which timing a single call with
// time.Now and time.Since adds once; per-call timings subtract it.
func clockCost() time.Duration {
	const n = 10_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return time.Since(t0) / n
}

// probeLayers captures the workload cell's inputs and replays them
// through each layer's public functions, timing the calls.
func probeLayers(ctx context.Context, tr *tracer, kernel string, cfg sim.Config, o *outcome) error {
	root := tr.begin("probe", 0)
	defer tr.end(root, 1)
	capID := tr.begin("capture", root)
	c, err := capture(ctx, kernel, cfg)
	tr.end(capID, 1)
	if err != nil {
		return fmt.Errorf("capture %s/%s: %w", kernel, cfg.Scheme.Name, err)
	}
	if len(c.refs) == 0 || len(c.fetchLat) == 0 {
		return fmt.Errorf("capture %s/%s saw %d references and %d fetches", kernel, cfg.Scheme.Name, len(c.refs), len(c.fetchLat))
	}
	lat := make([]float64, len(c.fetchLat))
	for i, v := range c.fetchLat {
		lat[i] = float64(v)
	}
	o.set("secmem.fetch_lat_p50_cycles", quantile(lat, 0.5))
	o.set("secmem.fetch_lat_p99_cycles", quantile(lat, 0.99))
	tick := clockCost()

	// Caches and TLB, wired as memsys wires them: write-through direct-
	// mapped L1D in front of the set-associative L2.
	mc := cfg.Mem
	l1d := cache.New(cache.Config{Name: "L1D", SizeBytes: mc.L1DSize, LineSize: mc.LineSize, Ways: 1, HitLatency: mc.L1Latency, WriteThrough: true})
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: mc.L2Size, LineSize: mc.LineSize, Ways: mc.L2Ways, HitLatency: mc.L2Latency})
	dtlb := tlb.New(tlb.Config{Name: "DTLB", Entries: mc.TLBEntries, Ways: mc.TLBWays, MissPenalty: mc.TLBMissPenalty})
	var events []lineEvent
	flushEvery := len(c.refs)/10 + 1
	var flushTime, accTime time.Duration
	flushes := 0
	id := tr.begin("cache.Access", root)
	seg := time.Now()
	for i, r := range c.refs {
		if i > 0 && i%flushEvery == 0 {
			accTime += time.Since(seg)
			fid := tr.begin("cache.FlushDirty", root)
			t0 := time.Now()
			l2.FlushDirty(func(la uint64) { events = append(events, lineEvent{la, true}) })
			flushTime += time.Since(t0)
			tr.end(fid, 1)
			flushes++
			seg = time.Now()
		}
		dtlb.Lookup(r.addr)
		if hit, _ := l1d.Access(r.addr, r.write); hit && !r.write {
			continue
		}
		hit, ev := l2.Access(r.addr, r.write)
		if ev.Valid && ev.Dirty {
			events = append(events, lineEvent{ev.Addr, true})
		}
		if !hit {
			events = append(events, lineEvent{l2.LineAddr(r.addr), false})
		}
	}
	accTime += time.Since(seg)
	tr.end(id, int64(len(c.refs)))
	o.set("cache.access_ns", float64(accTime.Nanoseconds())/float64(len(c.refs)))
	o.set("cache.flush_us", float64(flushTime.Nanoseconds())/1e3/float64(max(flushes, 1)))

	// Sequence-number cache over the line stream.
	sc := seqcache.New(128 << 10)
	id = tr.begin("seqcache.Access", root)
	t0 := time.Now()
	for _, e := range events {
		if e.evict {
			sc.Update(e.la)
		} else {
			sc.Access(e.la)
		}
	}
	d := time.Since(t0)
	tr.end(id, int64(len(events)))
	o.set("seqcache.access_ns", float64(d.Nanoseconds())/float64(max(len(events), 1)))

	// Secure memory controller on a fresh machine of the same cell.
	m, err := sim.NewMachine(kernel, cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	type fetch struct {
		la, seq uint64
	}
	var fetches []fetch
	var fetchT, evictT time.Duration
	var nFetch, nEvict int
	now := uint64(1000)
	id = tr.begin("secmem.FetchLine+EvictLine", root)
	for _, e := range events {
		now += 200
		if e.evict {
			t0 := time.Now()
			m.Ctrl.EvictLine(now, e.la)
			evictT += time.Since(t0) - tick
			nEvict++
			continue
		}
		seq := m.Ctrl.Seq(e.la)
		t0 := time.Now()
		m.Ctrl.FetchLine(now, e.la)
		fetchT += time.Since(t0) - tick
		nFetch++
		fetches = append(fetches, fetch{e.la, seq})
	}
	tr.end(id, int64(len(events)))
	o.set("secmem.fetch_ns", float64(fetchT.Nanoseconds())/float64(max(nFetch, 1)))
	o.set("secmem.evict_ns", float64(evictT.Nanoseconds())/float64(max(nEvict, 1)))

	// Predictor on a second fresh machine (roots drawn as the cell's
	// own were), fed the true counters the controller saw.
	pm, err := sim.NewMachine(kernel, cfg)
	if err != nil {
		return err
	}
	defer pm.Close()
	pred := pm.Pred
	if cfg.Scheme.Pred == predictor.SchemeNone {
		pred = predictor.New(predictor.DefaultConfig(predictor.SchemeContext))
	}
	guesses := make([][]uint64, len(fetches))
	id = tr.begin("predictor.Predict+Observe", root)
	t0 = time.Now()
	for i, f := range fetches {
		g := pred.Predict(f.la)
		guesses[i] = append([]uint64(nil), g...)
		pred.Observe(f.la, f.seq, g)
	}
	d = time.Since(t0)
	tr.end(id, int64(len(fetches)))
	o.set("predictor.predict_observe_ns", float64(d.Nanoseconds())/float64(max(len(fetches), 1)))

	// Pad generation: every guess of every fetch, as the engine would.
	ks := pm.Engine.Keystream()
	var pads []ctr.Pad
	n := 0
	id = tr.begin("ctr.PadsInto", root)
	t0 = time.Now()
	for i, f := range fetches {
		g := guesses[i]
		if len(g) == 0 {
			g = []uint64{f.seq}
		}
		if cap(pads) < len(g) {
			pads = make([]ctr.Pad, len(g))
		}
		ks.PadsInto(pads[:len(g)], f.la, g)
		n += len(g)
	}
	d = time.Since(t0)
	tr.end(id, int64(n))
	o.set("ctr.pad_ns", float64(d.Nanoseconds())/float64(max(n, 1)))
	o.set("ctr.pads", float64(n))

	// DRAM: every line event as a 64-byte read or write.
	dr := dram.New(cfg.DRAM)
	id = tr.begin("dram.Access", root)
	now = 1000
	t0 = time.Now()
	for _, e := range events {
		now += 200
		dr.Access(now, e.la, mc.LineSize, e.evict)
	}
	d = time.Since(t0)
	tr.end(id, int64(len(events)))
	o.set("dram.access_ns", float64(d.Nanoseconds())/float64(max(len(events), 1)))

	// Integrity tree: a line's first touch installs its leaf, writebacks
	// update it, fetches verify it.
	tree := integrity.New(integrity.DefaultConfig(), dram.New(cfg.DRAM))
	counters := make(map[uint64]uint64)
	var updT, verT time.Duration
	var nUpd, nVer int
	line := func(la, c uint64) ctr.Line {
		var l ctr.Line
		for i := range l {
			l[i] = byte(la>>uint(i%8*8)) ^ byte(c)
		}
		return l
	}
	id = tr.begin("integrity.Update+Verify", root)
	now = 1000
	for _, e := range events {
		now += 200
		cnt, seen := counters[e.la]
		if !seen || e.evict {
			cnt++
			counters[e.la] = cnt
			l := line(e.la, cnt)
			t0 := time.Now()
			tree.Update(now, e.la, cnt, l)
			updT += time.Since(t0) - tick
			nUpd++
		}
		if !e.evict {
			l := line(e.la, cnt)
			t0 := time.Now()
			ok, _ := tree.Verify(now, e.la, cnt, l)
			verT += time.Since(t0) - tick
			nVer++
			if !ok {
				return fmt.Errorf("integrity replay: authentic line %#x failed verification", e.la)
			}
		}
	}
	tr.end(id, int64(nUpd+nVer))
	o.set("integrity.update_us", float64(updT.Nanoseconds())/1e3/float64(max(nUpd, 1)))
	o.set("integrity.verify_us", float64(verT.Nanoseconds())/1e3/float64(max(nVer, 1)))

	// One interior-node hash: Arity child digests.
	node := make([]byte, integrity.DefaultConfig().Arity*sha256.Size)
	const hashes = 20_000
	id = tr.begin("sha256.Sum256", root)
	t0 = time.Now()
	for i := 0; i < hashes; i++ {
		node[i%len(node)]++
		sum := sha256.Sum256(node)
		node[0] ^= sum[0]
	}
	d = time.Since(t0)
	tr.end(id, hashes)
	o.set("sha256.node_hash_ns", float64(d.Nanoseconds())/hashes)
	return nil
}

// setLayerCounts derives the per-layer counts and ratios from the
// traced cells' Results and timings.
func setLayerCounts(o *outcome, cells []cellRun, utilization float64, tmplMS, encMS []float64) {
	var (
		runS, instr, cycles, nm                          float64
		flushes, flushed, l1a, l1m, l2a, l2m, dtlbMisses float64
		scHits, scFetches                                float64
		pHits, pFetches, pGuesses, pResets               float64
		issued, specIssued, predHits, stalls, qwait      float64
		dramAcc, rowHits                                 float64
		fetches, evictions, covered, exposed             float64
		updates, verifies, levels, nodeHits              float64
		cellMS                                           []float64
	)
	for _, c := range cells {
		r := c.res
		runS += c.run.Seconds()
		nm += float64(c.newMachine) / 1e6
		instr += float64(r.CPU.Instructions)
		cycles += float64(r.CPU.Cycles)
		flushes += float64(r.Hierarchy.Flushes)
		flushed += float64(r.Hierarchy.FlushedLines)
		l1a += float64(r.L1D.Accesses)
		l1m += float64(r.L1D.Misses)
		l2a += float64(r.L2.Accesses)
		l2m += float64(r.L2.Misses)
		dtlbMisses += float64(c.dtlbMisses)
		if r.SeqCache != nil {
			scHits += float64(r.Ctrl.SeqCacheHits)
			scFetches += float64(r.Ctrl.Fetches)
		}
		if r.Pred.Fetches > 0 {
			pHits += float64(r.Pred.Hits)
			pFetches += float64(r.Pred.Fetches)
			pGuesses += float64(r.Pred.Guesses)
			pResets += float64(r.Pred.Resets)
		}
		issued += float64(r.Engine.IssuedTotal())
		specIssued += float64(r.Engine.Issued[cryptoengine.ClassPrediction])
		predHits += float64(r.Ctrl.PredHits)
		stalls += float64(r.Engine.StallCycles)
		if r.Engine.QueueWait != nil {
			qwait = max(qwait, float64(r.Engine.QueueWait.Quantile(0.99)))
		}
		dramAcc += float64(r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts)
		rowHits += float64(r.DRAM.RowHits)
		fetches += float64(r.Ctrl.Fetches)
		evictions += float64(r.Ctrl.Evictions)
		covered += r.Ctrl.CounterCoverage() * float64(r.Ctrl.Fetches)
		exposed += float64(r.Ctrl.DecryptExposed)
		if r.Integrity != nil {
			updates += float64(r.Integrity.Updates)
			verifies += float64(r.Integrity.Verifies)
			levels += float64(r.Integrity.LevelsWalked)
			nodeHits += float64(r.Integrity.CacheHits)
		}
		cellMS = append(cellMS, float64(c.newMachine+c.run)/1e6)
	}
	l2Lines := float64(figureL2 / 64)
	o.set("sim.template_build_ms", mean(tmplMS))
	o.set("sim.new_machine_ms", nm/float64(len(cells)))
	o.set("sim.template_builds", float64(len(tmplMS)))
	o.set("cpu.run_s", runS)
	o.set("cpu.host_ns_per_instr", runS*1e9/instr)
	o.set("cpu.instructions", instr)
	o.set("cpu.cycles", cycles)
	o.set("memsys.flushes", flushes)
	o.set("memsys.flushed_lines", flushed)
	o.set("cache.dirty_per_flush_ratio", ratio(flushed, flushes*l2Lines))
	o.set("cache.l1d_miss_rate", ratio(l1m, l1a))
	o.set("cache.l2_miss_rate", ratio(l2m, l2a))
	o.set("tlb.dtlb_misses", dtlbMisses)
	o.set("seqcache.hit_rate", ratio(scHits, scFetches))
	o.set("predictor.hit_rate", ratio(pHits, pFetches))
	o.set("predictor.guesses_per_fetch", ratio(pGuesses, pFetches))
	o.set("predictor.resets", pResets)
	o.set("cryptoengine.issued_total", issued)
	o.set("cryptoengine.spec_useful_ratio", ratio(predHits, specIssued))
	o.set("cryptoengine.stall_cycles", stalls)
	o.set("cryptoengine.queue_wait_p99_cycles", qwait)
	o.set("dram.accesses", dramAcc)
	o.set("dram.row_hit_rate", ratio(rowHits, dramAcc))
	o.set("secmem.fetches", fetches)
	o.set("secmem.evictions", evictions)
	o.set("secmem.counter_coverage", ratio(covered, fetches))
	o.set("secmem.decrypt_exposed_per_fetch", ratio(exposed, fetches))
	o.set("integrity.updates", updates)
	o.set("integrity.verifies", verifies)
	o.set("integrity.levels_per_verify", ratio(levels, verifies))
	o.set("integrity.node_cache_hit_ratio", ratio(nodeHits, verifies))
	o.set("experiments.cell_ms_p50", median(cellMS))
	o.set("experiments.cell_ms_max", quantile(cellMS, 1))
	o.set("runpool.utilization", utilization)
	o.set("stats.snapshot_encode_ms", mean(encMS))
}

// zeroServiceLayers sets the service-only layer metrics a simulator
// workload does not exercise.
func zeroServiceLayers(o *outcome) {
	for _, n := range []string{"server.hit_ratio", "server.hit_lat_p50_ms", "server.miss_lat_p50_ms",
		"server.ttfb_ms", "server.rejected", "cluster.retries", "cluster.peer_hits",
		"loadgen.lag_p99_ms", "loadgen.backlog_max"} {
		o.set(n, 0)
	}
}

//! The traced run: call counts and host time per call for every layer a
//! memory op passes through.
//!
//! A timer pair around each layer call costs about as much as the call
//! itself, so layers are timed by replay instead. An instrumented copy of
//! `Machine::run_reference` drives the layers through their public
//! functions, in the same order, and records each layer's input stream.
//! Every [`CHUNK`] memory ops the recorded chunk is replayed, one layer at
//! a time, into a fresh instance of that layer under a single timer pair,
//! and the replay's outputs are checked against the recorded ones.
//! Interval ticks are rare, so they alone are timed with spans, less the
//! measured cost of a timer pair.
//!
//! A cell's layer figures count only if the instrumented pass reproduced
//! `run_one`'s statistics float-bit exactly and every replay reproduced
//! its layer's outputs. A cell that breaks one of the accounting
//! identities of `tests/stats_consistency.rs` counts as failed but keeps
//! its figures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cpu::{Core, CoreConfig};
use dram::{DeviceStats, DramSystem};
use mem_cache::{Hierarchy, HierarchyStats, Outcome};
use sim::{
    build_scheme, scheme_label, AnyScheme, EvalConfig, PageAllocator, RunResult, SchemeKind,
};
use sim_types::{AccessKind, Cycle, MemReq, MemSide, PAddr, TraceOp, TraceSource, VAddr};
use workloads::{Workload, WorkloadSpec};

use crate::{
    build_machine, cell_label, first_difference, median, model_metrics, ratio, system, Metric,
    Plan, Tally, CORES,
};

/// Memory ops recorded before the chunk is replayed.
const CHUNK: usize = 1 << 15;
/// `Machine::new` seeds its page allocator with `seed ^ PAGE_SEED_MIX`.
const PAGE_SEED_MIX: u64 = 0x9E37;
/// Core-event tags in the top two bits of a recorded word.
const CPU_STORE: u64 = 1 << 62;
const CPU_MISS: u64 = 2 << 62;
const CPU_PAYLOAD: u64 = (1 << 62) - 1;
/// Op-metadata byte: core index in the low bits, write flag on top.
const META_WRITE: u8 = 0x80;

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

fn op_word(op: Option<TraceOp>) -> u64 {
    op.map_or(u64::MAX, |op| {
        op.addr.raw() ^ u64::from(op.gap) << 40 ^ u64::from(op.kind.is_write()) << 63
    })
}

fn outcome_word(o: &Outcome) -> u64 {
    let line = |a: Option<PAddr>| a.map_or(0, |a| a.raw() + 1);
    o.latency ^ line(o.llc_miss).rotate_left(16) ^ line(o.writeback).rotate_left(40)
}

fn kind_of(meta: u8) -> AccessKind {
    if meta & META_WRITE != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// One scheme-layer call, in call order.
#[derive(Clone, Copy)]
enum SchemeEvent {
    Access(MemReq),
    Tick(Cycle),
}

/// The recorded input streams of one chunk.
#[derive(Default)]
struct Chunk {
    /// `next_op` calls per core.
    gen_calls: [u64; CORES],
    /// Per memory op: core index and write flag.
    op_meta: Vec<u8>,
    /// Per memory op: the virtual address translated.
    vaddr: Vec<u64>,
    /// Per memory op: the physical address the hierarchy saw.
    paddr: Vec<u64>,
    /// Per core: advance / store / miss-load calls, tagged.
    cpu: [Vec<u64>; CORES],
    /// Scheme accesses and interval ticks, in order.
    scheme: Vec<SchemeEvent>,
}

impl Chunk {
    fn clear(&mut self) {
        self.gen_calls = [0; CORES];
        self.op_meta.clear();
        self.vaddr.clear();
        self.paddr.clear();
        self.cpu.iter_mut().for_each(Vec::clear);
        self.scheme.clear();
    }
}

/// Host time spent in each layer's replay.
#[derive(Clone, Copy, Default)]
struct LayerTimes {
    workloads: Duration,
    page_alloc: Duration,
    cpu: Duration,
    cache: Duration,
    /// Scheme accesses, including the scheme's own DRAM submissions.
    scheme: Duration,
    ticks: Duration,
}

impl LayerTimes {
    fn total(&self) -> Duration {
        self.workloads + self.page_alloc + self.cpu + self.cache + self.scheme + self.ticks
    }
}

/// Output digests of every layer call, kept by both the instrumented pass
/// and the replay; they must agree.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Digests {
    ops: [u64; CORES],
    pages: u64,
    cache: u64,
    scheme: u64,
}

/// A complete set of layer instances for one cell, built as `run_one`
/// builds them.
struct Parts {
    cores: Vec<Core>,
    hierarchy: Hierarchy,
    scheme: AnyScheme,
    dram: DramSystem,
    pages: PageAllocator,
    workload: Workload,
    digests: Digests,
}

impl Parts {
    fn new(kind: SchemeKind, spec: &WorkloadSpec, cfg: &EvalConfig) -> Parts {
        let sys = system(cfg);
        let scheme = build_scheme(kind, &sys);
        let pages = PageAllocator::new(scheme.flat_capacity_bytes(), cfg.seed ^ PAGE_SEED_MIX);
        Parts {
            cores: (0..CORES)
                .map(|i| Core::new(i as u8, CoreConfig::paper_default()))
                .collect(),
            hierarchy: Hierarchy::new(sys.hierarchy()),
            scheme,
            dram: DramSystem::paper_default().with_service(cfg.service),
            pages,
            workload: Workload::build(spec, CORES, cfg.scale_den, cfg.seed),
            digests: Digests::default(),
        }
    }

    /// The statistics `Machine` reports, read from these parts. Fields
    /// `RunResult` gains later are copied from `like`, so the benchmark
    /// keeps building against newer simulators.
    #[allow(clippy::needless_update)]
    fn result(&self, like: &RunResult) -> RunResult {
        let h = self.hierarchy.stats();
        let instructions: u64 = self.cores.iter().map(Core::retired).sum();
        let nm = self.dram.device(MemSide::Nm).stats();
        let fm = self.dram.device(MemSide::Fm).stats();
        RunResult {
            scheme: self.scheme.name(),
            workload: self.workload.spec().name.clone(),
            cycles: self.cores.iter().map(|c| c.now().raw()).max().unwrap_or(0),
            instructions,
            mem_ops: h.l1.accesses,
            mpki: h.mpki(instructions),
            nm_served: self.scheme.stats().nm_served_fraction(),
            fm_traffic: self.dram.traffic_bytes(MemSide::Fm),
            nm_traffic: self.dram.traffic_bytes(MemSide::Nm),
            energy_mj: self.dram.total_energy().total_mj(),
            footprint: self.pages.footprint_bytes(),
            nm_queue_mean: nm.mean_queue_occupancy(),
            nm_queue_max: nm.queue_peak_occupancy,
            fm_queue_mean: fm.mean_queue_occupancy(),
            fm_queue_max: fm.queue_peak_occupancy,
            stats: self.scheme.stats().clone(),
            ..like.clone()
        }
    }

    /// Replays one recorded chunk into these (fresh) parts, one layer at a
    /// time, each under a single timer pair.
    fn replay(&mut self, c: &Chunk, shared: bool, timer_pair: Duration, t: &mut LayerTimes) -> u32 {
        let d = &mut self.digests;

        let started = Instant::now();
        for (i, &calls) in c.gen_calls.iter().enumerate() {
            let src = self.workload.source_mut(i);
            let mut h = d.ops[i];
            for _ in 0..calls {
                h = mix(h, op_word(src.next_op()));
            }
            d.ops[i] = h;
        }
        t.workloads += started.elapsed();

        let started = Instant::now();
        let mut h = d.pages;
        for (&meta, &v) in c.op_meta.iter().zip(&c.vaddr) {
            let space = if shared { 0 } else { meta & !META_WRITE };
            let (p, fresh) = self.pages.translate_tracking(space, VAddr::new(v));
            h = mix(h, p.raw() ^ u64::from(fresh) << 63);
        }
        d.pages = h;
        t.page_alloc += started.elapsed();

        let started = Instant::now();
        let mut h = d.cache;
        for (&meta, &p) in c.op_meta.iter().zip(&c.paddr) {
            let core = usize::from(meta & !META_WRITE);
            let out = self.hierarchy.access(core, PAddr::new(p), kind_of(meta));
            h = mix(h, outcome_word(&out));
        }
        d.cache = h;
        t.cache += started.elapsed();

        let started = Instant::now();
        for (core, events) in self.cores.iter_mut().zip(&c.cpu) {
            for &e in events {
                match e & !CPU_PAYLOAD {
                    0 => core.advance_instructions(e),
                    CPU_STORE => core.note_store(),
                    _ => core.issue_llc_miss_load(Cycle::new(e & CPU_PAYLOAD)),
                }
            }
        }
        t.cpu += started.elapsed();

        let started = Instant::now();
        let mut h = d.scheme;
        let mut ticks = 0u32;
        let mut tick_time = Duration::ZERO;
        for ev in &c.scheme {
            match *ev {
                SchemeEvent::Access(req) => {
                    let s = self.scheme.access(&req, &mut self.dram);
                    h = mix(h, s.done.raw() ^ u64::from(s.from_nm) << 63);
                }
                SchemeEvent::Tick(at) => {
                    // An empty span reads about one timer call: half a pair.
                    let span = Instant::now();
                    self.scheme.on_tick(at, &mut self.dram);
                    tick_time += span.elapsed().saturating_sub(timer_pair / 2);
                    ticks += 1;
                }
            }
        }
        d.scheme = h;
        // Each tick also cost the whole loop its two timer calls.
        let whole = started.elapsed();
        t.ticks += tick_time;
        t.scheme += whole.saturating_sub(tick_time + timer_pair * ticks);
        ticks
    }
}

/// Everything one traced cell contributes to the ledger.
struct CellLedger {
    label: String,
    input: String,
    mem_ops: u64,
    gen_calls: u64,
    first_touches: u64,
    cache: HierarchyStats,
    /// Dirty LLC victims the hierarchy handed to the scheme.
    writebacks_sent: u64,
    scheme_requests: u64,
    ticks: u64,
    stats: dram::SchemeStats,
    nm: DeviceStats,
    fm: DeviceStats,
    times: LayerTimes,
    traced: Duration,
    untraced: Duration,
    /// A failed accounting identity. The cell counts as failed, but its
    /// layer figures stand: the simulation itself was reproduced exactly.
    conservation: Option<String>,
}

/// Cost of one `Instant::now()` pair in ns: the median over several batches.
fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..PAIRS {
                black_box(Instant::now());
                black_box(Instant::now());
            }
            started.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
        })
        .collect();
    median(&batches)
}

/// The instrumented `run_reference` loop over one cell, replaying each
/// full chunk into `replica` as it goes.
fn traced_cell(
    kind: SchemeKind,
    spec: &WorkloadSpec,
    cfg: &EvalConfig,
    reference: &RunResult,
    timer: Duration,
) -> Result<CellLedger, String> {
    // Untraced: the same cell through `Machine::run`, set-up excluded.
    let mut machine = build_machine(kind, spec, cfg);
    let started = Instant::now();
    let untraced_result = machine.run(cfg.instrs_per_core);
    let untraced = started.elapsed();
    drop(machine);
    if let Some(d) = first_difference(reference, &untraced_result) {
        return Err(format!("Machine::run differs from run_one: {d}"));
    }

    let mut p = Parts::new(kind, spec, cfg);
    let mut replica = Parts::new(kind, spec, cfg);
    let mut times = LayerTimes::default();
    let mut chunk = Chunk::default();
    let mut ticks = 0;
    let mut gen_calls = 0;
    let mut writebacks_sent = 0;
    let instrs = cfg.instrs_per_core;
    let shared = p.workload.shared_address_space();
    let mut next_tick = p.scheme.tick_period().unwrap_or(u64::MAX);
    let idx_bits = CORES.next_power_of_two().trailing_zeros().max(1);
    let mut keys: Vec<u64> = (0..CORES as u64).collect();
    let mut traced = Duration::ZERO;
    let mut segment = Instant::now();
    loop {
        let best = keys.iter().copied().fold(u64::MAX, u64::min);
        if best == u64::MAX {
            break;
        }
        let i = (best & ((1 << idx_bits) - 1)) as usize;
        let core = &mut p.cores[i];
        let now = core.now().raw();
        while now >= next_tick {
            let at = Cycle::new(next_tick);
            chunk.scheme.push(SchemeEvent::Tick(at));
            p.scheme.on_tick(at, &mut p.dram);
            next_tick += p.scheme.tick_period().unwrap_or(u64::MAX);
        }
        let op = p.workload.source_mut(i).next_op();
        chunk.gen_calls[i] += 1;
        gen_calls += 1;
        p.digests.ops[i] = mix(p.digests.ops[i], op_word(op));
        let Some(op) = op else {
            let remaining = instrs - core.retired();
            chunk.cpu[i].push(remaining);
            core.advance_instructions(remaining);
            keys[i] = u64::MAX;
            continue;
        };
        chunk.cpu[i].push(op.instructions());
        core.advance_instructions(op.instructions());

        let space = if shared { 0 } else { i as u8 };
        let (paddr, fresh) = p.pages.translate_tracking(space, op.addr);
        p.digests.pages = mix(p.digests.pages, paddr.raw() ^ u64::from(fresh) << 63);
        let write = op.kind.is_write();
        chunk
            .op_meta
            .push(i as u8 | if write { META_WRITE } else { 0 });
        chunk.vaddr.push(op.addr.raw());
        chunk.paddr.push(paddr.raw());
        let out = p.hierarchy.access(i, paddr, op.kind);
        p.digests.cache = mix(p.digests.cache, outcome_word(&out));

        if let Some(wb) = out.writeback {
            writebacks_sent += 1;
            let req = MemReq::write(wb, 64, core.now()).on_core(i as u8);
            chunk.scheme.push(SchemeEvent::Access(req));
            let s = p.scheme.access(&req, &mut p.dram);
            p.digests.scheme = mix(p.digests.scheme, s.done.raw() ^ u64::from(s.from_nm) << 63);
        }
        if let Some(miss) = out.llc_miss {
            let req = MemReq {
                addr: miss,
                kind: op.kind,
                bytes: 64,
                at: core.now() + out.latency,
                core: i as u8,
            };
            chunk.scheme.push(SchemeEvent::Access(req));
            let s = p.scheme.access(&req, &mut p.dram);
            p.digests.scheme = mix(p.digests.scheme, s.done.raw() ^ u64::from(s.from_nm) << 63);
            if write {
                chunk.cpu[i].push(CPU_STORE);
                core.note_store();
            } else {
                chunk.cpu[i].push(CPU_MISS | s.done.raw());
                core.issue_llc_miss_load(s.done);
            }
        }
        keys[i] = if core.retired() < instrs {
            (core.now().raw() << idx_bits) | i as u64
        } else {
            u64::MAX
        };

        if chunk.op_meta.len() == CHUNK {
            traced += segment.elapsed();
            ticks += u64::from(replica.replay(&chunk, shared, timer, &mut times));
            chunk.clear();
            segment = Instant::now();
        }
    }
    p.cores.iter_mut().for_each(Core::drain);
    p.scheme.on_finish();
    traced += segment.elapsed();
    ticks += u64::from(replica.replay(&chunk, shared, timer, &mut times));
    let started = Instant::now();
    replica.cores.iter_mut().for_each(Core::drain);
    times.cpu += started.elapsed();
    let started = Instant::now();
    replica.scheme.on_finish();
    times.scheme += started.elapsed();

    let traced_result = p.result(reference);
    if let Some(d) = first_difference(reference, &traced_result) {
        return Err(format!("traced run differs from run_one: {d}"));
    }
    check_replica(&p, &replica)?;
    let conservation = conservation(&p, spec, cfg, writebacks_sent).err();

    let h = p.hierarchy.stats().clone();
    Ok(CellLedger {
        label: scheme_label(kind),
        input: spec.name.clone(),
        mem_ops: traced_result.mem_ops,
        gen_calls,
        first_touches: p.pages.allocated_pages(),
        scheme_requests: p.scheme.stats().requests,
        ticks,
        stats: p.scheme.stats().clone(),
        nm: p.dram.device(MemSide::Nm).stats().clone(),
        fm: p.dram.device(MemSide::Fm).stats().clone(),
        cache: h,
        writebacks_sent,
        times,
        traced,
        untraced,
        conservation,
    })
}

/// The replay must have reproduced every layer's outputs and final state.
fn check_replica(p: &Parts, r: &Parts) -> Result<(), String> {
    let mismatch = |layer: &str| Err(format!("{layer} replay diverged from the traced pass"));
    if p.digests.ops != r.digests.ops {
        return mismatch("workloads");
    }
    if p.digests.pages != r.digests.pages || p.pages.table_digest() != r.pages.table_digest() {
        return mismatch("page_alloc");
    }
    if p.digests.cache != r.digests.cache || p.hierarchy.stats() != r.hierarchy.stats() {
        return mismatch("cache");
    }
    let core_state = |c: &Core| (c.now(), *c.stats());
    if !p
        .cores
        .iter()
        .map(core_state)
        .eq(r.cores.iter().map(core_state))
    {
        return mismatch("cpu");
    }
    let dram_state = |x: &Parts| {
        let dev = |side| format!("{:?}", x.dram.device(side).stats());
        (
            dev(MemSide::Nm),
            dev(MemSide::Fm),
            x.dram.total_energy().total_mj().to_bits(),
        )
    };
    if p.digests.scheme != r.digests.scheme
        || p.scheme.stats() != r.scheme.stats()
        || dram_state(p) != dram_state(r)
    {
        return mismatch("scheme/dram");
    }
    Ok(())
}

/// The accounting identities of `tests/stats_consistency.rs`, on the
/// traced cell's layers. `writebacks_sent` counts the writebacks the
/// hierarchy's outcomes carried to the scheme. The hierarchy passes on at
/// most one dirty victim per access, so it may count more than it sends;
/// the surplus is reported as `cache.writebacks_dropped`, not failed.
fn conservation(
    p: &Parts,
    spec: &WorkloadSpec,
    cfg: &EvalConfig,
    writebacks_sent: u64,
) -> Result<(), String> {
    let h = p.hierarchy.stats();
    let s = p.scheme.stats();
    let instructions: u64 = p.cores.iter().map(Core::retired).sum();
    let target = CORES as u64 * cfg.instrs_per_core;
    // Each core stops at the first op that reaches its target, so it may
    // overshoot by at most one op's instructions.
    let slack = CORES as u64 * (2 * u64::from(spec.pattern.max_mem_every(spec.mem_every)) + 1);
    let fail = |what: String| Err(format!("conservation: {what}"));
    if instructions < target || instructions >= target + slack {
        return fail(format!(
            "instructions {instructions} vs 8 x {}",
            cfg.instrs_per_core
        ));
    }
    if h.l1.accesses - h.l1.hits != h.l2.accesses {
        return fail(format!(
            "L1 misses {} != L2 accesses {}",
            h.l1.accesses - h.l1.hits,
            h.l2.accesses
        ));
    }
    if h.l2.accesses - h.l2.hits != h.llc.accesses {
        return fail(format!(
            "L2 misses {} != LLC accesses {}",
            h.l2.accesses - h.l2.hits,
            h.llc.accesses
        ));
    }
    if writebacks_sent > h.writebacks {
        return fail(format!(
            "writebacks sent {writebacks_sent} > writebacks counted {}",
            h.writebacks
        ));
    }
    if h.llc_misses() + writebacks_sent != s.requests {
        return fail(format!(
            "LLC misses {} + writebacks sent {writebacks_sent} != scheme requests {}",
            h.llc_misses(),
            s.requests
        ));
    }
    for side in [MemSide::Nm, MemSide::Fm] {
        let by_class: u64 = p.dram.device(side).stats().bytes_by_class.iter().sum();
        if by_class != p.dram.traffic_bytes(side) {
            return fail(format!("{side:?} per-class bytes {by_class} != traffic"));
        }
    }
    Ok(())
}

/// Sums the ledger over one pass's cells into the reported metrics.
fn pass_metrics(cells: &[CellLedger], timer_ns: f64) -> Vec<Metric> {
    let secs = |d: Duration| d.as_secs_f64();
    let ns_per = |d: Duration, n: u64| ratio(secs(d) * 1e9, n as f64);
    let sum = |f: &dyn Fn(&CellLedger) -> u64| cells.iter().map(f).sum::<u64>();
    let time =
        |f: &dyn Fn(&LayerTimes) -> Duration| cells.iter().map(|c| f(&c.times)).sum::<Duration>();

    let ops = sum(&|c| c.mem_ops);
    let gen_calls = sum(&|c| c.gen_calls);
    let untraced: Duration = cells.iter().map(|c| c.untraced).sum();
    let traced: Duration = cells.iter().map(|c| c.traced).sum();
    let layers = time(&LayerTimes::total);
    let level = |f: &dyn Fn(&HierarchyStats) -> (u64, u64)| {
        let (hits, accesses) = cells.iter().fold((0, 0), |(h, a), c| {
            let (x, y) = f(&c.cache);
            (h + x, a + y)
        });
        ratio(hits as f64, accesses as f64)
    };

    let mut m = vec![
        Metric::new("workloads.calls", gen_calls as f64, "count"),
        Metric::new(
            "workloads.ns_per_call",
            ns_per(time(&|t| t.workloads), gen_calls),
            "ns",
        ),
        Metric::new("page_alloc.calls", ops as f64, "count"),
        Metric::new(
            "page_alloc.first_touches",
            sum(&|c| c.first_touches) as f64,
            "count",
        ),
        Metric::new(
            "page_alloc.ns_per_call",
            ns_per(time(&|t| t.page_alloc), ops),
            "ns",
        ),
        Metric::new("cpu.ns_per_op", ns_per(time(&|t| t.cpu), ops), "ns"),
        Metric::new("cache.calls", ops as f64, "count"),
        Metric::new("cache.ns_per_call", ns_per(time(&|t| t.cache), ops), "ns"),
        Metric::new(
            "cache.l1_hit_rate",
            level(&|h| (h.l1.hits, h.l1.accesses)),
            "fraction",
        ),
        Metric::new(
            "cache.l2_hit_rate",
            level(&|h| (h.l2.hits, h.l2.accesses)),
            "fraction",
        ),
        Metric::new(
            "cache.llc_hit_rate",
            level(&|h| (h.llc.hits, h.llc.accesses)),
            "fraction",
        ),
        Metric::new(
            "cache.writebacks",
            sum(&|c| c.cache.writebacks) as f64,
            "count",
        ),
        Metric::new(
            "cache.writebacks_dropped",
            sum(&|c| c.cache.writebacks - c.writebacks_sent) as f64,
            "count",
        ),
    ];

    let mut by_scheme: BTreeMap<String, Vec<&CellLedger>> = BTreeMap::new();
    for c in cells {
        by_scheme.entry(c.label.clone()).or_default().push(c);
    }
    for kind in crate::schemes() {
        let label = scheme_label(kind);
        let group = by_scheme.get(&label).map_or(&[][..], Vec::as_slice);
        let total =
            |f: &dyn Fn(&dram::SchemeStats) -> u64| group.iter().map(|c| f(&c.stats)).sum::<u64>();
        let requests: u64 = group.iter().map(|c| c.scheme_requests).sum();
        let t: Duration = group.iter().map(|c| c.times.scheme).sum();
        m.push(Metric::new(
            format!("scheme.{label}.requests"),
            requests as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("scheme.{label}.ns_per_request"),
            ns_per(t, requests),
            "ns",
        ));
        m.push(Metric::new(
            format!("scheme.{label}.lookup_hit_rate"),
            ratio(total(&|s| s.lookup_hits) as f64, requests as f64),
            "fraction",
        ));
        m.push(Metric::new(
            format!("scheme.{label}.moved"),
            total(&|s| s.moved_into_nm + s.moved_out_of_nm) as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("scheme.{label}.metadata_ops"),
            total(&|s| s.metadata_reads + s.metadata_writes) as f64,
            "count",
        ));
    }
    let ticks = sum(&|c| c.ticks);
    m.push(Metric::new("scheme.ticks", ticks as f64, "count"));
    m.push(Metric::new(
        "scheme.tick_ns",
        ns_per(time(&|t| t.ticks), ticks),
        "ns",
    ));

    let dev = |side: MemSide, f: &dyn Fn(&DeviceStats) -> u64| {
        cells
            .iter()
            .map(|c| f(if side == MemSide::Nm { &c.nm } else { &c.fm }))
            .sum::<u64>()
    };
    for (side, name) in [(MemSide::Nm, "nm"), (MemSide::Fm, "fm")] {
        let accesses = dev(side, &|d| d.accesses);
        m.push(Metric::new(
            format!("dram.{name}_accesses"),
            accesses as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("dram.{name}_row_hit_rate"),
            ratio(dev(side, &|d| d.row_hits) as f64, accesses as f64),
            "fraction",
        ));
        m.push(Metric::new(
            format!("dram.{name}_bytes"),
            dev(side, &|d| d.total_bytes()) as f64,
            "B",
        ));
        m.push(Metric::new(
            format!("dram.{name}_queue_mean"),
            ratio(
                dev(side, &|d| d.queue_occupancy_sum) as f64,
                accesses as f64,
            ),
            "requests",
        ));
    }
    let both = |f: &dyn Fn(&DeviceStats) -> u64| dev(MemSide::Nm, f) + dev(MemSide::Fm, f);
    m.push(Metric::new(
        "dram.queue_stalls",
        both(&|d| d.queue_stalls) as f64,
        "count",
    ));
    m.push(Metric::new(
        "dram.queue_stall_cycles",
        both(&|d| d.queue_stall_cycles) as f64,
        "cycles",
    ));

    m.push(Metric::new(
        "machine.ns_per_op",
        (secs(untraced) - secs(layers)) * 1e9 / ops as f64,
        "ns",
    ));
    m.push(Metric::new(
        "machine.ledger_closure",
        ratio(secs(layers), secs(untraced)),
        "fraction",
    ));
    m.push(Metric::new("trace.timer_ns", timer_ns, "ns"));
    m.push(Metric::new(
        "trace.overhead_frac",
        ratio(secs(traced), secs(untraced)) - 1.0,
        "fraction",
    ));
    m
}

/// The traced run: whole passes over the workload until `seconds` have
/// gone by (at least one). Counts must repeat exactly across passes; each
/// reported time is the median over passes.
pub(crate) fn traced_run(
    plan: &Plan,
    cfg: &EvalConfig,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let timer_ns = timer_pair_ns();
    let timer = Duration::from_secs_f64(timer_ns * 1e-9);
    let started = Instant::now();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let mut first_pass: Option<Vec<RunResult>> = None;
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // The batch as users run it: reference results and matrix figures.
        let (results, cell_secs, wall) = plan.run_batch(cfg);
        let first_pass = first_pass.get_or_insert_with(|| results.clone());
        let mut cells = Vec::new();
        for (((kind, spec), reference), earlier) in
            plan.cells().into_iter().zip(&results).zip(&*first_pass)
        {
            let outcome = match first_difference(earlier, reference) {
                Some(d) => Err(format!("not deterministic across passes: {d}")),
                None => traced_cell(kind, spec, cfg, reference, timer),
            };
            let label = cell_label(kind, spec);
            match outcome {
                Ok(c) => {
                    tally.check(&label, c.conservation.clone());
                    cells.push(c);
                }
                Err(e) => tally.check(&label, Some(e)),
            }
        }
        if passes.is_empty() {
            for spec in &plan.specs {
                let (requests, ops) = cells
                    .iter()
                    .filter(|c| c.input == spec.name)
                    .fold((0, 0), |(r, o), c| (r + c.scheme_requests, o + c.mem_ops));
                println!(
                    "input {}: {:.3} scheme requests per memory op (all schemes)",
                    spec.name,
                    ratio(requests as f64, ops as f64)
                );
            }
        }
        let mut metrics = vec![
            Metric::new("matrix.cells", cell_secs.len() as f64, "count"),
            Metric::new(
                "matrix.busy_frac",
                cell_secs.iter().sum::<f64>() / (plan.threads as f64 * wall),
                "fraction",
            ),
            Metric::new(
                "matrix.max_cell_s",
                cell_secs.iter().copied().fold(0.0, f64::max),
                "s",
            ),
        ];
        metrics.extend(pass_metrics(&cells, timer_ns));
        metrics.extend(model_metrics(plan, &results));
        println!(
            "traced pass {}: {} cells, untraced loop {:.2} s, {:.1} s elapsed",
            passes.len() + 1,
            cells.len(),
            cells.iter().map(|c| c.untraced.as_secs_f64()).sum::<f64>(),
            started.elapsed().as_secs_f64()
        );
        passes.push(metrics);
    }
    // Counts and simulated figures repeat across passes (checked above), so
    // the per-metric median moves only the host times.
    passes[0]
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let values: Vec<f64> = passes.iter().map(|p| p[k].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

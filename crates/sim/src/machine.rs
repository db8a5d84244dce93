//! The full-system event loop.

use std::sync::{mpsc, RwLock};

use cpu::{Core, CoreConfig, SideBuffer};
use dram::{DramSystem, SchemeStats};
use mem_cache::{Hierarchy, SetAssocCache};
use sim_types::{Cycle, MemReq, MemSide, PAddr, TraceOp, TraceSource, TrafficClass, VAddr};
use workloads::{TraceGen, Workload};

use crate::any_scheme::AnyScheme;
use crate::page_alloc::PageAllocator;

/// Default ops-per-pick cap of the epoch-batched [`Machine::run`] loop.
///
/// The cap is a serviceability knob, not a semantic one: any batch size
/// produces byte-identical results (`--batch 1` degenerates to the per-op
/// reference schedule), and run-ahead epochs end early at the first shared
/// interaction anyway, so a generous cap simply lets long private-hit
/// bursts amortize the scheduler re-pick.
pub const DEFAULT_BATCH: usize = 4096;

/// One core's last successful page translation, `(vpage, frame base)`.
///
/// Page mappings are append-only and a core's address space is fixed for
/// the run, so a memo hit returns exactly what the page table would, and
/// the page is already mapped (never a first touch). A virtual page number
/// is at most 2^52, so the empty memo's `u64::MAX` matches none.
#[derive(Clone, Copy)]
struct PageMemo {
    vpage: u64,
    base: u64,
}

impl PageMemo {
    const EMPTY: PageMemo = PageMemo {
        vpage: u64::MAX,
        base: 0,
    };

    #[inline]
    fn get(self, vaddr: VAddr) -> Option<PAddr> {
        let v = vaddr.raw();
        (v >> 12 == self.vpage).then(|| PAddr::new(self.base | (v & 4095)))
    }

    #[inline]
    fn set(&mut self, vaddr: VAddr, paddr: PAddr) {
        self.vpage = vaddr.raw() >> 12;
        self.base = paddr.raw() & !4095;
    }
}

/// Packs one core's scheduler pick key: `now << idx_bits | index`, with
/// `u64::MAX` reserved as the "finished" sentinel.
///
/// Two silent-corruption hazards guard loudly here (the same discipline
/// `Dcmc::on_tick` applies to tick monotonicity). A clock within `idx_bits`
/// of the top bit would shift high bits out and wrap the pick order, so the
/// shift headroom is asserted. Subtler: a clock that *fits* can still pack
/// to the all-ones word — `now = 2^61 - 1` with `idx_bits = 3` and index 7
/// passes the headroom check yet collides with the finished sentinel, which
/// would silently drop a live core from the schedule — so the sentinel
/// collision is asserted too.
///
/// # Panics
///
/// Panics if `now` has fewer than `idx_bits` bits of headroom, or if the
/// packed key equals the finished sentinel.
#[inline]
fn scheduler_key(now: u64, index: usize, idx_bits: u32) -> u64 {
    assert!(
        now >> (64 - idx_bits) == 0,
        "simulated time overflows the packed scheduler key"
    );
    let key = (now << idx_bits) | index as u64;
    assert!(
        key != u64::MAX,
        "scheduler key collides with the finished sentinel"
    );
    key
}

/// Everything measured by one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme name as used in the paper's figures.
    pub scheme: &'static str,
    /// Workload name.
    pub workload: String,
    /// Total simulated cycles (slowest core, after drain).
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Memory operations replayed from the traces (L1 accesses) — the
    /// per-op inner loop's iteration count, used to express simulator
    /// throughput as mem-ops/sec.
    pub mem_ops: u64,
    /// Measured LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Fraction of processor memory requests served from NM, in [0, 1].
    pub nm_served: f64,
    /// Bytes moved on the FM interface (all traffic classes).
    pub fm_traffic: u64,
    /// Bytes moved on the NM interface (all traffic classes).
    pub nm_traffic: u64,
    /// Dynamic memory energy in millijoules.
    pub energy_mj: f64,
    /// Measured footprint in bytes (distinct pages touched).
    pub footprint: u64,
    /// Mean NM service-queue occupancy observed at admission (0 under the
    /// unbounded model, which never materialises queues).
    pub nm_queue_mean: f64,
    /// Peak NM service-queue occupancy observed at admission.
    pub nm_queue_max: u64,
    /// Mean FM service-queue occupancy observed at admission.
    pub fm_queue_mean: f64,
    /// Peak FM service-queue occupancy observed at admission.
    pub fm_queue_max: u64,
    /// The scheme's own counters.
    pub stats: SchemeStats,
}

impl RunResult {
    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// A complete simulated system: 8 interval cores + cache hierarchy +
/// memory scheme + DRAM devices + page allocator + workload.
pub struct Machine {
    cores: Vec<Core>,
    hierarchy: Hierarchy,
    scheme: AnyScheme,
    dram: DramSystem,
    pages: PageAllocator,
    workload: Workload,
    next_tick: u64,
    os_hints: bool,
}

impl Machine {
    /// Assembles a machine. The scheme arrives as an [`AnyScheme`]
    /// (anything concrete converts with `.into()`), so the two
    /// `scheme.access` calls per memory op dispatch statically. The page
    /// allocator covers the scheme's flat capacity.
    pub fn new(
        cores: usize,
        hierarchy: Hierarchy,
        scheme: AnyScheme,
        dram: DramSystem,
        workload: Workload,
        seed: u64,
    ) -> Self {
        let pages = PageAllocator::new(scheme.flat_capacity_bytes(), seed ^ 0x9E37);
        let tick = scheme.tick_period().unwrap_or(u64::MAX);
        Machine {
            cores: (0..cores)
                .map(|i| Core::new(i as u8, CoreConfig::paper_default()))
                .collect(),
            hierarchy,
            scheme,
            dram,
            pages,
            workload,
            next_tick: tick,
            os_hints: false,
        }
    }

    /// Enables §3.8-style OS free-space hints: the whole flat space starts
    /// hinted *unused*, and each first-touched page is hinted *used* as the
    /// allocator hands it out (the information ISA-Alloc/ISA-Free would
    /// carry in Chameleon's design).
    #[must_use]
    pub fn with_os_hints(mut self) -> Self {
        self.os_hints = true;
        let cap = self.scheme.flat_capacity_bytes();
        self.scheme.os_hint_unused(sim_types::PAddr::new(0), cap);
        self
    }

    /// Runs until every core has retired `instrs_per_core` instructions,
    /// then drains outstanding misses and reports. Equivalent to
    /// [`Machine::run_batched`] at [`DEFAULT_BATCH`]; results are
    /// byte-identical to [`Machine::run_reference`] for every batch size.
    pub fn run(&mut self, instrs_per_core: u64) -> RunResult {
        self.run_batched(instrs_per_core, DEFAULT_BATCH)
    }

    /// The epoch-batched event loop.
    ///
    /// The per-op reference schedule ([`Machine::run_reference`]) re-picks
    /// the globally earliest core (packed `now << bits | index` key,
    /// deterministic index tie-break) before *every* memory op. This loop
    /// picks once per *epoch*: the chosen core first executes ops under
    /// full reference semantics while it remains globally earliest (its
    /// packed key no larger than the frozen second-smallest key — other
    /// cores' keys cannot change while it runs), then *runs ahead* through
    /// ops that are provably core-local: an already-mapped page (reads of
    /// the page table commute with other cores' first touches) whose line
    /// hits the private L1 (no L2/LLC/scheme/DRAM interaction). The epoch
    /// ends at the first op that would touch a shared structure — a
    /// first-touch allocation, anything reaching L2 or beyond — which is
    /// stashed and replayed once the core is globally earliest again, or
    /// after `batch` ops.
    ///
    /// Shared interactions therefore execute in exactly the reference
    /// order: a core arrives at its next shared op with the same clock the
    /// reference would show (run-ahead ops advance nothing but its own
    /// state), and the pick compares the same packed keys. Interval ticks
    /// fire only while a core is globally earliest, plus a trailing
    /// catch-up to the highest clock any executed op observed — the same
    /// `on_tick` sequence, in the same position relative to every shared
    /// access, as the reference (L1 hits commute with ticks: neither reads
    /// the other's state). All of this is pinned by the differential tests
    /// in `tests/batched_differential.rs` at float-bit granularity.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn run_batched(&mut self, instrs_per_core: u64, batch: usize) -> RunResult {
        assert!(batch > 0, "batch must be at least 1 (1 = per-op reference)");
        let shared_space = self.workload.shared_address_space();
        let ncores = self.cores.len();
        let idx_bits = ncores.next_power_of_two().trailing_zeros().max(1);
        let pack = |now: u64, i: usize| scheduler_key(now, i, idx_bits);
        let mut keys: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if c.retired() < instrs_per_core {
                    pack(c.now().raw(), i)
                } else {
                    u64::MAX
                }
            })
            .collect();
        // Per-core op decoded during run-ahead but found to need a shared
        // structure: it executes when the core is next globally earliest.
        let mut pending: Vec<Option<TraceOp>> = vec![None; ncores];
        // Per-core translation memo: most consecutive ops of a core fall
        // in the page of its previous op, so both phases check it before
        // probing the page table.
        let mut memo = vec![PageMemo::EMPTY; ncores];
        // Highest clock-before-op any executed op (or trace-exhaustion
        // check) observed — the reference fires ticks up to exactly this
        // horizon, so the trailing catch-up below uses it.
        let mut tick_horizon: u64 = 0;
        {
            let Machine {
                cores,
                hierarchy,
                scheme,
                dram,
                pages,
                workload,
                next_tick,
                os_hints,
            } = &mut *self;
            let os_hints = *os_hints;

            'epoch: loop {
                // One min-reduction per epoch: the earliest key wins the
                // pick; the runner-up is the global-ordering horizon the
                // winner must not cross with shared work. `other` stays
                // valid for the whole epoch because only keys[i] can move.
                let mut best = u64::MAX;
                let mut other = u64::MAX;
                for &k in &keys {
                    if k < best {
                        other = best;
                        best = k;
                    } else if k < other {
                        other = k;
                    }
                }
                if best == u64::MAX {
                    break;
                }
                let i = (best & ((1 << idx_bits) - 1)) as usize;
                let mut left = batch;

                // Phase 1 — globally earliest: full reference semantics
                // (interval ticks, first touches, hierarchy, scheme, DRAM).
                loop {
                    let now = cores[i].now().raw();
                    if pack(now, i) > other {
                        break; // lost the lead: only local work may follow
                    }
                    tick_horizon = tick_horizon.max(now);
                    while now >= *next_tick {
                        let t = Cycle::new(*next_tick);
                        scheme.on_tick(t, dram);
                        *next_tick += scheme.tick_period().unwrap_or(u64::MAX);
                    }

                    let op = match pending[i].take() {
                        Some(op) => op,
                        None => match workload.source_mut(i).next_op() {
                            Some(op) => op,
                            None => {
                                // Trace exhausted (generators are unbounded,
                                // but a VecTrace in tests may end).
                                let remaining = instrs_per_core - cores[i].retired();
                                cores[i].advance_instructions(remaining);
                                keys[i] = u64::MAX;
                                continue 'epoch;
                            }
                        },
                    };
                    cores[i].advance_instructions(op.instructions());

                    let paddr = match memo[i].get(op.addr) {
                        Some(paddr) => paddr,
                        None => {
                            let space = if shared_space { 0 } else { i as u8 };
                            let (paddr, fresh_page) = pages.translate_tracking(space, op.addr);
                            if os_hints && fresh_page {
                                let page_base = PAddr::new(paddr.raw() & !4095);
                                scheme.os_hint_used(page_base, 4096);
                            }
                            memo[i].set(op.addr, paddr);
                            paddr
                        }
                    };
                    let out = hierarchy.access(i, paddr, op.kind);

                    if let Some(wb) = out.writeback {
                        // Dirty LLC victim: buffered write to memory.
                        let req = MemReq::write(wb, 64, cores[i].now()).on_core(i as u8);
                        scheme.access(&req, dram);
                    }
                    if let Some(miss) = out.llc_miss {
                        let at = cores[i].now() + out.latency;
                        let req = MemReq {
                            addr: miss,
                            kind: op.kind,
                            bytes: 64,
                            at,
                            core: i as u8,
                        };
                        let served = scheme.access(&req, dram);
                        if op.kind.is_write() {
                            cores[i].note_store();
                        } else {
                            cores[i].issue_llc_miss_load(served.done);
                        }
                    }

                    if cores[i].retired() >= instrs_per_core {
                        keys[i] = u64::MAX;
                        continue 'epoch;
                    }
                    left -= 1;
                    if left == 0 {
                        keys[i] = pack(cores[i].now().raw(), i);
                        continue 'epoch;
                    }
                }

                // Phase 2 — run-ahead: past the horizon, so only provably
                // core-local ops may execute (mapped page + private L1
                // hit). No tick housekeeping here: a run-ahead core firing
                // a tick would reorder it against other cores' pending
                // shared ops; L1 hits commute with ticks, so deferring
                // them to the next phase-1 pick is exact.
                debug_assert!(pending[i].is_none(), "pending op survived phase 1");
                loop {
                    let now = cores[i].now().raw();
                    let Some(op) = workload.source_mut(i).next_op() else {
                        tick_horizon = tick_horizon.max(now);
                        let remaining = instrs_per_core - cores[i].retired();
                        cores[i].advance_instructions(remaining);
                        keys[i] = u64::MAX;
                        continue 'epoch;
                    };
                    let paddr = memo[i].get(op.addr).or_else(|| {
                        let space = if shared_space { 0 } else { i as u8 };
                        let paddr = pages.lookup(space, op.addr)?;
                        memo[i].set(op.addr, paddr);
                        Some(paddr)
                    });
                    let local =
                        paddr.is_some_and(|paddr| hierarchy.l1_access_fast(i, paddr, op.kind));
                    if !local {
                        // Would touch a shared structure: stash it for the
                        // next pick. The key stays the clock *before* the
                        // op — its arrival key in the reference schedule.
                        pending[i] = Some(op);
                        keys[i] = pack(now, i);
                        continue 'epoch;
                    }
                    tick_horizon = tick_horizon.max(now);
                    cores[i].advance_instructions(op.instructions());
                    if cores[i].retired() >= instrs_per_core {
                        keys[i] = u64::MAX;
                        continue 'epoch;
                    }
                    left -= 1;
                    if left == 0 {
                        keys[i] = pack(cores[i].now().raw(), i);
                        continue 'epoch;
                    }
                }
            }

            // Trailing tick catch-up: the reference runs tick housekeeping
            // at every per-op pick, so it fires every tick up to the
            // highest clock-before-op seen; run-ahead skipped some of
            // those picks. All shared accesses are done, and every
            // remaining tick is later than each of them was, so firing
            // the stragglers here preserves the reference interleaving.
            while tick_horizon >= *next_tick {
                let t = Cycle::new(*next_tick);
                scheme.on_tick(t, dram);
                *next_tick += scheme.tick_period().unwrap_or(u64::MAX);
            }
        }
        for c in &mut self.cores {
            c.drain();
        }
        self.scheme.on_finish();
        self.result()
    }

    /// The optimistic parallel event loop: [`Machine::run_batched`]'s
    /// run-ahead windows executed concurrently on `threads` scoped worker
    /// threads, byte-identical to [`Machine::run_reference`] by
    /// construction for every thread count.
    ///
    /// `threads == 1` (the default everywhere) *is* the batched loop —
    /// this method delegates — so existing schedules are untouched.
    ///
    /// # Schedule
    ///
    /// The loop alternates two phases:
    ///
    /// * **Drain** — while the globally earliest core (same packed-key pick
    ///   as the reference) holds a stashed shared op, that op executes
    ///   sequentially on this thread under full reference semantics:
    ///   interval ticks at its clock, first-touch translation, the full
    ///   hierarchy walk, scheme and DRAM. Shared interactions therefore
    ///   happen in exactly the reference order, one at a time.
    /// * **Speculate** — once the earliest core has no decoded op, every
    ///   unfinished, pending-free core's run-ahead window executes
    ///   *concurrently*: each worker owns that core's `Core`, private-L1
    ///   bank and trace source outright (ownership round-trips through
    ///   channels each round; no locks on the hot path) and speculates
    ///   through provably core-local ops — already-mapped pages (read-only
    ///   lookups against the frozen page table) whose lines hit the private
    ///   L1 — into a per-core [`SideBuffer`]. The first op needing a shared
    ///   structure is stashed as pending and ends the window.
    ///
    /// # Why no rollback is ever needed
    ///
    /// Speculated ops touch only state no other core can observe: the
    /// core's own clock/stats and its private L1 bank. Page-table reads
    /// commute with drains because the table is append-only (a page seen
    /// mapped stays mapped; a page seen unmapped merely stashes the op
    /// conservatively — it replays through the full path at its exact
    /// reference position). L1 hits commute with interval ticks and with
    /// other cores' shared ops, and their statistics credit is a
    /// commutative sum deferred to one
    /// [`Hierarchy::credit_speculated_l1_hits`] call. Windows are merged in
    /// core order regardless of completion order, so the arrival schedule
    /// of worker results is unobservable. `tests/batched_differential.rs`
    /// pins all of this to the reference at float-bit granularity for every
    /// `--machine-threads` value.
    ///
    /// Whether a round runs on the workers or inline on this thread is
    /// gated by the previous round's yield (channel round-trips only pay
    /// off when windows are long); the gate is itself deterministic, and
    /// either path produces identical bytes.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `threads` is zero.
    pub fn run_parallel(
        &mut self,
        instrs_per_core: u64,
        batch: usize,
        threads: usize,
    ) -> RunResult {
        self.run_parallel_telemetry(instrs_per_core, batch, threads)
            .0
    }

    /// [`Machine::run_parallel`] plus the deterministic schedule telemetry
    /// (identical for every `threads >= 2`; zeros when the call delegates
    /// to the batched loop at `threads == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `threads` is zero.
    pub fn run_parallel_telemetry(
        &mut self,
        instrs_per_core: u64,
        batch: usize,
        threads: usize,
    ) -> (RunResult, ParallelTelemetry) {
        assert!(threads > 0, "machine threads must be at least 1");
        assert!(batch > 0, "batch must be at least 1 (1 = per-op reference)");
        let ncores = self.cores.len();
        let threads = threads.min(ncores);
        if threads <= 1 {
            return (
                self.run_batched(instrs_per_core, batch),
                ParallelTelemetry::default(),
            );
        }

        let shared_space = self.workload.shared_address_space();
        let os_hints = self.os_hints;
        let idx_bits = ncores.next_power_of_two().trailing_zeros().max(1);

        // Per-core ownership bundles the rounds hand to workers. The page
        // table moves behind a local RwLock: workers hold read guards for
        // the duration of a window, the drain phase takes the write guard
        // per first-touch translation; the phases strictly alternate, so
        // the lock is never contended — it exists to prove the sharing
        // safe, not to arbitrate it.
        let mut slots: Vec<Option<Slot>> = {
            let cores = std::mem::take(&mut self.cores);
            let banks = self.hierarchy.detach_l1();
            let sources = self.workload.detach_sources();
            cores
                .into_iter()
                .zip(banks)
                .zip(sources)
                .map(|((core, l1), src)| Some(Slot { core, l1, src }))
                .collect()
        };
        let pages_lock = RwLock::new(std::mem::replace(
            &mut self.pages,
            PageAllocator::new(4096, 0),
        ));

        let mut keys: Vec<u64> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let c = &s.as_ref().expect("slot populated").core;
                if c.retired() < instrs_per_core {
                    scheduler_key(c.now().raw(), i, idx_bits)
                } else {
                    u64::MAX
                }
            })
            .collect();
        let mut pending: Vec<Option<TraceOp>> = vec![None; ncores];
        let mut tick_horizon: u64 = 0;
        // All windows merged: `ops` is the deferred L1-hit credit,
        // `horizon` joins the trailing tick catch-up.
        let mut spec = SideBuffer::default();
        let mut telemetry = ParallelTelemetry::default();

        // Dispatch a round to the workers only when the previous round
        // speculated enough ops to amortize the channel round-trip;
        // below that, speculate inline. A pure scheduling decision —
        // both paths produce identical bytes — that lets low-locality
        // workloads (tiny windows) degrade to batched-loop speed
        // instead of drowning in synchronization. Deterministic, since
        // window yields are.
        const INLINE_THRESHOLD: u64 = 512;
        let mut last_yield = u64::MAX; // optimistic: first round goes wide

        std::thread::scope(|s| {
            let pages_ref = &pages_lock;
            let (done_tx, done_rx) = mpsc::channel::<SpecDone>();
            let mut task_txs: Vec<mpsc::Sender<SpecTask>> = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (tx, rx) = mpsc::channel::<SpecTask>();
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    for SpecTask { idx, slot } in rx {
                        let pages = pages_ref.read().expect("page table lock poisoned");
                        let done =
                            speculate(slot, idx, &pages, shared_space, instrs_per_core, batch);
                        drop(pages);
                        if done_tx.send(done).is_err() {
                            break;
                        }
                    }
                });
                task_txs.push(tx);
            }
            drop(done_tx);

            let Machine {
                hierarchy,
                scheme,
                dram,
                next_tick,
                ..
            } = &mut *self;

            loop {
                // The same earliest-core pick as the reference schedule.
                let best = keys.iter().copied().fold(u64::MAX, u64::min);
                if best == u64::MAX {
                    break;
                }
                let i = (best & ((1 << idx_bits) - 1)) as usize;

                if let Some(op) = pending[i].take() {
                    // Drain: the earliest core's stashed shared op, under
                    // full reference semantics at its reference position.
                    let slot = slots[i].as_mut().expect("slot home during drain");
                    let now = slot.core.now().raw();
                    tick_horizon = tick_horizon.max(now);
                    while now >= *next_tick {
                        let t = Cycle::new(*next_tick);
                        scheme.on_tick(t, dram);
                        *next_tick += scheme.tick_period().unwrap_or(u64::MAX);
                    }
                    slot.core.advance_instructions(op.instructions());

                    let space = if shared_space { 0 } else { i as u8 };
                    let (paddr, fresh_page) = {
                        let mut pages = pages_ref.write().expect("page table lock poisoned");
                        pages.translate_tracking(space, op.addr)
                    };
                    if os_hints && fresh_page {
                        let page_base = sim_types::PAddr::new(paddr.raw() & !4095);
                        scheme.os_hint_used(page_base, 4096);
                    }
                    let out = hierarchy.access_detached(&mut slot.l1, i, paddr, op.kind);

                    if let Some(wb) = out.writeback {
                        // Dirty LLC victim: buffered write to memory.
                        let req = MemReq::write(wb, 64, slot.core.now()).on_core(i as u8);
                        scheme.access(&req, dram);
                    }
                    if let Some(miss) = out.llc_miss {
                        let at = slot.core.now() + out.latency;
                        let req = MemReq {
                            addr: miss,
                            kind: op.kind,
                            bytes: 64,
                            at,
                            core: i as u8,
                        };
                        let served = scheme.access(&req, dram);
                        if op.kind.is_write() {
                            slot.core.note_store();
                        } else {
                            slot.core.issue_llc_miss_load(served.done);
                        }
                    }
                    telemetry.drained_ops += 1;
                    keys[i] = if slot.core.retired() >= instrs_per_core {
                        u64::MAX
                    } else {
                        scheduler_key(slot.core.now().raw(), i, idx_bits)
                    };
                    continue;
                }

                // The earliest core has no decoded op: run a speculation
                // round over every unfinished, pending-free core (the
                // earliest included — it is pending-free by the branch
                // above). Each makes at least one op of progress, so the
                // loop terminates.
                let eligible: Vec<usize> = (0..ncores)
                    .filter(|&j| keys[j] != u64::MAX && pending[j].is_none())
                    .collect();
                telemetry.rounds += 1;
                let mut results: Vec<Option<SpecDone>> = (0..ncores).map(|_| None).collect();
                if last_yield >= INLINE_THRESHOLD && eligible.len() > 1 {
                    telemetry.dispatched_rounds += 1;
                    for (n, &j) in eligible.iter().enumerate() {
                        let slot = slots[j].take().expect("slot double-dispatched");
                        task_txs[n % threads]
                            .send(SpecTask { idx: j, slot })
                            .expect("speculation worker died");
                    }
                    for _ in 0..eligible.len() {
                        let done = done_rx.recv().expect("speculation worker died");
                        let idx = done.idx;
                        results[idx] = Some(done);
                    }
                } else {
                    telemetry.inline_rounds += 1;
                    let pages = pages_ref.read().expect("page table lock poisoned");
                    for &j in &eligible {
                        let slot = slots[j].take().expect("slot double-dispatched");
                        results[j] = Some(speculate(
                            slot,
                            j,
                            &pages,
                            shared_space,
                            instrs_per_core,
                            batch,
                        ));
                    }
                }
                // Merge in core order: worker completion order is
                // unobservable, so results are deterministic.
                let mut round_yield = 0u64;
                for j in eligible {
                    let done = results[j].take().expect("result for eligible core");
                    round_yield += done.buf.ops;
                    spec.merge(done.buf);
                    pending[j] = done.pending;
                    keys[j] = if done.finished {
                        u64::MAX
                    } else {
                        scheduler_key(done.slot.core.now().raw(), j, idx_bits)
                    };
                    slots[j] = Some(done.slot);
                }
                last_yield = round_yield;
            }
            // task_txs drops here; workers see closed channels and exit,
            // and the scope joins them before returning.
        });

        // Reinstall the detached state, credit the deferred L1 hits, and
        // finish exactly like the batched loop.
        let mut cores = Vec::with_capacity(ncores);
        let mut banks = Vec::with_capacity(ncores);
        let mut sources = Vec::with_capacity(ncores);
        for slot in &mut slots {
            let Slot { core, l1, src } = slot.take().expect("slot home at teardown");
            cores.push(core);
            banks.push(l1);
            sources.push(src);
        }
        self.cores = cores;
        self.hierarchy.attach_l1(banks);
        self.workload.attach_sources(sources);
        self.pages = pages_lock.into_inner().expect("page table lock poisoned");
        self.hierarchy.credit_speculated_l1_hits(spec.ops);
        telemetry.speculated_ops = spec.ops;

        tick_horizon = tick_horizon.max(spec.horizon);
        while tick_horizon >= self.next_tick {
            let t = Cycle::new(self.next_tick);
            self.scheme.on_tick(t, &mut self.dram);
            self.next_tick += self.scheme.tick_period().unwrap_or(u64::MAX);
        }
        for c in &mut self.cores {
            c.drain();
        }
        self.scheme.on_finish();
        (self.result(), telemetry)
    }

    /// The per-op reference event loop — PR 2's hot path, kept verbatim as
    /// the semantic oracle for [`Machine::run_batched`]. Every op re-picks
    /// the earliest unfinished core; `tests/batched_differential.rs` holds
    /// the batched loop to this, field by field, at float-bit granularity.
    pub fn run_reference(&mut self, instrs_per_core: u64) -> RunResult {
        // Earliest unfinished core first (deterministic tie-break by
        // index) — this keeps DRAM arrival order causal. Core clocks are
        // mirrored into a compact array of `now << shift | index` keys
        // (u64::MAX = finished), so the per-op earliest-core pick is a
        // branchless min-reduction over a few contiguous words — the
        // winning index rides along in the low bits — instead of a
        // pointer-chasing scan through the Core structs (a binary heap
        // loses here too: at 8 cores its sift branches cost more than
        // the whole scan). Min over these keys picks the lowest index
        // among time ties, exactly like the scan it replaces.
        let shared_space = self.workload.shared_address_space();
        let idx_bits = self.cores.len().next_power_of_two().trailing_zeros().max(1);
        let pack = |now: u64, i: usize| scheduler_key(now, i, idx_bits);
        let mut keys: Vec<u64> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if c.retired() < instrs_per_core {
                    pack(c.now().raw(), i)
                } else {
                    u64::MAX
                }
            })
            .collect();
        loop {
            let best = keys.iter().copied().fold(u64::MAX, u64::min);
            if best == u64::MAX {
                break;
            }
            let i = (best & ((1 << idx_bits) - 1)) as usize;

            // Interval housekeeping (migration schemes).
            let now = self.cores[i].now().raw();
            while now >= self.next_tick {
                let t = Cycle::new(self.next_tick);
                self.scheme.on_tick(t, &mut self.dram);
                self.next_tick += self.scheme.tick_period().unwrap_or(u64::MAX);
            }

            let Some(op) = self.workload.source_mut(i).next_op() else {
                // Trace exhausted (generators are unbounded, but a VecTrace
                // in tests may end): finish this core.
                let remaining = instrs_per_core - self.cores[i].retired();
                self.cores[i].advance_instructions(remaining);
                keys[i] = u64::MAX;
                continue;
            };
            self.cores[i].advance_instructions(op.instructions());

            let space = if shared_space { 0 } else { i as u8 };
            let (paddr, fresh_page) = self.pages.translate_tracking(space, op.addr);
            if self.os_hints && fresh_page {
                let page_base = sim_types::PAddr::new(paddr.raw() & !4095);
                self.scheme.os_hint_used(page_base, 4096);
            }
            let out = self.hierarchy.access(i, paddr, op.kind);

            if let Some(wb) = out.writeback {
                // Dirty LLC victim: buffered write to memory.
                let req = MemReq::write(wb, 64, self.cores[i].now()).on_core(i as u8);
                self.scheme.access(&req, &mut self.dram);
            }
            if let Some(miss) = out.llc_miss {
                let at = self.cores[i].now() + out.latency;
                let req = MemReq {
                    addr: miss,
                    kind: op.kind,
                    bytes: 64,
                    at,
                    core: i as u8,
                };
                let served = self.scheme.access(&req, &mut self.dram);
                if op.kind.is_write() {
                    self.cores[i].note_store();
                } else {
                    self.cores[i].issue_llc_miss_load(served.done);
                }
            }

            keys[i] = if self.cores[i].retired() < instrs_per_core {
                pack(self.cores[i].now().raw(), i)
            } else {
                u64::MAX
            };
        }
        for c in &mut self.cores {
            c.drain();
        }
        self.scheme.on_finish();
        self.result()
    }

    fn result(&self) -> RunResult {
        let cycles = self.cores.iter().map(|c| c.now().raw()).max().unwrap_or(0);
        let instructions: u64 = self.cores.iter().map(|c| c.retired()).sum();
        let hstats = self.hierarchy.stats();
        RunResult {
            scheme: self.scheme.name(),
            workload: self.workload.spec().name.clone(),
            cycles,
            instructions,
            mem_ops: hstats.l1.accesses,
            mpki: hstats.mpki(instructions),
            nm_served: self.scheme.stats().nm_served_fraction(),
            fm_traffic: self.dram.traffic_bytes(MemSide::Fm),
            nm_traffic: self.dram.traffic_bytes(MemSide::Nm),
            energy_mj: self.dram.total_energy().total_mj(),
            footprint: self.pages.footprint_bytes(),
            nm_queue_mean: self.dram.device(MemSide::Nm).stats().mean_queue_occupancy(),
            nm_queue_max: self.dram.device(MemSide::Nm).stats().queue_peak_occupancy,
            fm_queue_mean: self.dram.device(MemSide::Fm).stats().mean_queue_occupancy(),
            fm_queue_max: self.dram.device(MemSide::Fm).stats().queue_peak_occupancy,
            stats: self.scheme.stats().clone(),
        }
    }

    /// Digest of the full first-touch page mapping (see
    /// [`PageAllocator::table_digest`]): equal digests across batch sizes
    /// certify that epoch batching preserved allocation order exactly.
    pub fn page_table_digest(&self) -> u64 {
        self.pages.table_digest()
    }

    /// NM traffic attributable to metadata, for the §5.2.1 claim (4.1% of
    /// NM traffic).
    pub fn nm_metadata_fraction(&self) -> f64 {
        let total = self.dram.traffic_bytes(MemSide::Nm);
        if total == 0 {
            return 0.0;
        }
        let meta = self
            .dram
            .device(MemSide::Nm)
            .stats()
            .bytes(TrafficClass::Metadata);
        meta as f64 / total as f64
    }
}

/// One core's exclusively owned state, handed to a speculation worker for
/// the duration of a run-ahead window: the interval core, its private-L1
/// bank (detached from the [`Hierarchy`]) and its trace source. Everything
/// a window may touch travels in the slot; everything shared stays behind.
struct Slot {
    core: Core,
    l1: SetAssocCache,
    src: TraceGen,
}

/// A speculation-round work item: core `idx`'s slot, moving to a worker.
struct SpecTask {
    idx: usize,
    slot: Slot,
}

/// A completed run-ahead window coming back from a worker.
struct SpecDone {
    idx: usize,
    slot: Slot,
    /// The first op that needed a shared structure, stashed for the drain
    /// phase to execute at its exact reference position.
    pending: Option<TraceOp>,
    /// The core hit its instruction target (or exhausted its trace).
    finished: bool,
    /// The window's side-buffered accounting (ops, instructions, horizon).
    buf: SideBuffer,
}

/// One optimistic run-ahead window — the parallel counterpart of
/// [`Machine::run_batched`]'s phase 2, op for op: consume provably
/// core-local ops (mapped page, private-L1 hit) until the first shared
/// interaction, the instruction target, trace exhaustion, or the batch
/// budget. Reads the shared page table only through `lookup` and mutates
/// only the slot's own state plus the side buffer.
fn speculate(
    mut slot: Slot,
    idx: usize,
    pages: &PageAllocator,
    shared_space: bool,
    instrs_per_core: u64,
    budget: usize,
) -> SpecDone {
    let mut buf = SideBuffer::default();
    let mut pending = None;
    let mut finished = false;
    let mut left = budget;
    let space = if shared_space { 0 } else { idx as u8 };
    loop {
        let now = slot.core.now().raw();
        let Some(op) = slot.src.next_op() else {
            // Trace exhausted (generators are unbounded, but a VecTrace in
            // tests may end). The exhaustion check observes the clock, so
            // it joins the tick horizon like any other pick.
            buf.horizon = buf.horizon.max(now);
            let remaining = instrs_per_core - slot.core.retired();
            slot.core.advance_instructions(remaining);
            finished = true;
            break;
        };
        let local = pages
            .lookup(space, op.addr)
            .is_some_and(|paddr| slot.l1.access_if_hit(paddr.raw(), op.kind.is_write()));
        if !local {
            // Would touch a shared structure: end the window. The core's
            // clock still reads "before the op" — its arrival key in the
            // reference schedule.
            pending = Some(op);
            break;
        }
        slot.core
            .advance_instructions_buffered(op.instructions(), &mut buf);
        if slot.core.retired() >= instrs_per_core {
            finished = true;
            break;
        }
        left -= 1;
        if left == 0 {
            break;
        }
    }
    SpecDone {
        idx,
        slot,
        pending,
        finished,
        buf,
    }
}

/// Deterministic accounting of one [`Machine::run_parallel`] schedule.
///
/// Every field is a function of (workload, seed, batch, instruction
/// target) alone — the worker count and completion order are unobservable —
/// so the telemetry doubles as a cross-host fingerprint: two machines
/// disagreeing here are not running the same schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelTelemetry {
    /// Speculation rounds executed.
    pub rounds: u64,
    /// Rounds dispatched to worker threads.
    pub dispatched_rounds: u64,
    /// Rounds speculated inline on the stepping thread (yield gate).
    pub inline_rounds: u64,
    /// Ops consumed inside run-ahead windows (the concurrent fraction).
    pub speculated_ops: u64,
    /// Ops executed sequentially in the drain phase (shared interactions).
    pub drained_ops: u64,
}

impl ParallelTelemetry {
    /// Fraction of memory ops consumed inside run-ahead windows — the
    /// parallelizable fraction an Amdahl projection starts from.
    pub fn speculated_fraction(&self) -> f64 {
        let total = self.speculated_ops + self.drained_ops;
        if total == 0 {
            0.0
        } else {
            self.speculated_ops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::FmOnly;
    use mem_cache::HierarchyConfig;
    use workloads::catalog;

    fn machine(seed: u64) -> Machine {
        let spec = catalog::by_name("lbm").unwrap();
        let wl = Workload::build(spec, 2, 1024, seed);
        Machine::new(
            2,
            Hierarchy::new(HierarchyConfig::scaled(2, 1, 64)),
            FmOnly::new(1 << 28).into(),
            DramSystem::paper_default(),
            wl,
            seed,
        )
    }

    #[test]
    fn runs_to_instruction_target() {
        let mut m = machine(1);
        let r = m.run(20_000);
        assert!(r.instructions >= 40_000);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0 && r.ipc() <= 8.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = machine(7).run(10_000);
        let r2 = machine(7).run(10_000);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.fm_traffic, r2.fm_traffic);
        assert_eq!(r1.instructions, r2.instructions);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = machine(1).run(10_000);
        let r2 = machine(2).run(10_000);
        assert_ne!(r1.cycles, r2.cycles);
    }

    #[test]
    fn batch_one_equals_reference_loop() {
        let r1 = machine(5).run_reference(10_000);
        let r2 = machine(5).run_batched(10_000, 1);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.instructions, r2.instructions);
        assert_eq!(r1.mem_ops, r2.mem_ops);
        assert_eq!(r1.fm_traffic, r2.fm_traffic);
        assert_eq!(r1.mpki.to_bits(), r2.mpki.to_bits());
        assert_eq!(r1.energy_mj.to_bits(), r2.energy_mj.to_bits());
    }

    #[test]
    fn batched_default_matches_reference() {
        let r1 = machine(9).run_reference(15_000);
        let mut m2 = machine(9);
        let r2 = m2.run_batched(15_000, DEFAULT_BATCH);
        let mut m3 = machine(9);
        let r3 = m3.run_batched(15_000, 3);
        for r in [&r2, &r3] {
            assert_eq!(r1.cycles, r.cycles);
            assert_eq!(r1.instructions, r.instructions);
            assert_eq!(r1.mem_ops, r.mem_ops);
            assert_eq!(r1.fm_traffic, r.fm_traffic);
            assert_eq!(r1.footprint, r.footprint);
        }
        // First-touch allocation order preserved exactly, not just counts.
        assert_eq!(m2.page_table_digest(), m3.page_table_digest());
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        machine(1).run_batched(1_000, 0);
    }

    #[test]
    fn parallel_matches_reference_bit_for_bit() {
        let r1 = machine(11).run_reference(15_000);
        for threads in [2, 3, 4] {
            let mut m = machine(11);
            let r = m.run_parallel(15_000, DEFAULT_BATCH, threads);
            assert_eq!(r1.cycles, r.cycles, "threads={threads}");
            assert_eq!(r1.instructions, r.instructions, "threads={threads}");
            assert_eq!(r1.mem_ops, r.mem_ops, "threads={threads}");
            assert_eq!(r1.fm_traffic, r.fm_traffic, "threads={threads}");
            assert_eq!(r1.footprint, r.footprint, "threads={threads}");
            assert_eq!(r1.mpki.to_bits(), r.mpki.to_bits(), "threads={threads}");
            assert_eq!(
                r1.energy_mj.to_bits(),
                r.energy_mj.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_preserves_first_touch_order() {
        let mut a = machine(13);
        let _ = a.run_reference(12_000);
        let mut b = machine(13);
        let _ = b.run_parallel(12_000, DEFAULT_BATCH, 2);
        assert_eq!(a.page_table_digest(), b.page_table_digest());
    }

    #[test]
    fn parallel_one_thread_is_the_batched_loop() {
        let r1 = machine(4).run_batched(10_000, DEFAULT_BATCH);
        let mut m = machine(4);
        let (r2, t) = m.run_parallel_telemetry(10_000, DEFAULT_BATCH, 1);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.mem_ops, r2.mem_ops);
        assert_eq!(t, ParallelTelemetry::default());
    }

    #[test]
    fn parallel_telemetry_is_schedule_determined() {
        let mut a = machine(6);
        let (ra, ta) = a.run_parallel_telemetry(10_000, DEFAULT_BATCH, 2);
        let mut b = machine(6);
        let (rb, tb) = b.run_parallel_telemetry(10_000, DEFAULT_BATCH, 4);
        assert_eq!(ta, tb, "worker count must be unobservable");
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ta.rounds, ta.dispatched_rounds + ta.inline_rounds);
        assert_eq!(ra.mem_ops, ta.speculated_ops + ta.drained_ops);
        assert!(ta.speculated_fraction() > 0.0);
        assert!(ta.speculated_fraction() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "machine threads must be at least 1")]
    fn zero_machine_threads_rejected() {
        machine(1).run_parallel(1_000, DEFAULT_BATCH, 0);
    }

    #[test]
    fn scheduler_key_orders_near_overflow_clocks() {
        // 2^61 - 2 is the largest clock with 3 bits of headroom that
        // cannot collide with the sentinel at any index.
        let near = (1u64 << 61) - 2;
        let k1 = scheduler_key(near - 1, 7, 3);
        let k2 = scheduler_key(near, 0, 3);
        let k3 = scheduler_key(near, 7, 3);
        assert!(k1 < k2 && k2 < k3);
        assert_ne!(k3, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows the packed scheduler key")]
    fn scheduler_key_overflow_is_loud() {
        let _ = scheduler_key(1u64 << 61, 0, 3);
    }

    #[test]
    #[should_panic(expected = "collides with the finished sentinel")]
    fn scheduler_key_sentinel_collision_is_loud() {
        // Passes the shift-headroom check — the clock fits in 61 bits —
        // yet packs to the all-ones word the scheduler reads as
        // "finished", which would silently drop a live core.
        let _ = scheduler_key((1u64 << 61) - 1, 7, 3);
    }

    #[test]
    fn streaming_workload_reaches_memory() {
        let mut m = machine(3);
        let r = m.run(20_000);
        assert!(r.mpki > 1.0, "lbm is a high-MPKI stream, got {}", r.mpki);
        assert!(r.fm_traffic > 0);
        assert_eq!(r.nm_traffic, 0, "FM-only system never touches NM");
        assert!(r.energy_mj > 0.0);
        assert!(r.footprint > 0);
    }
}

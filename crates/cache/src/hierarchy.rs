//! The three-level on-chip cache hierarchy of Table 1.
//!
//! Private L1 (64 KB, 4-way, 1 cycle) and L2 (256 KB, 8-way, 9 cycles) per
//! core plus one shared, non-inclusive 8 MB 16-way LLC (14 cycles). The
//! hierarchy filters the raw trace into the LLC-miss/writeback stream that
//! the memory schemes see, and reports the events LGM and DFC observe.

use sim_types::{AccessKind, PAddr};

use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache};

/// Latency and shape configuration for the hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// Number of cores (private L1/L2 instances).
    pub cores: usize,
    /// Per-core L1 configuration.
    pub l1: CacheConfig,
    /// Per-core L2 configuration.
    pub l2: CacheConfig,
    /// Shared LLC configuration.
    pub llc: CacheConfig,
    /// L1 hit latency in cycles (Table 1: 1).
    pub l1_latency: u64,
    /// L2 hit latency in cycles (Table 1: 9).
    pub l2_latency: u64,
    /// LLC hit latency in cycles (Table 1: 14).
    pub llc_latency: u64,
}

impl HierarchyConfig {
    /// The paper's Table 1 hierarchy for `cores` cores.
    pub fn paper_default(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        }
    }

    /// A proportionally scaled hierarchy for reduced-scale experiments:
    /// capacities multiplied by `num/den` (minimum one set per cache).
    ///
    /// # Panics
    ///
    /// Panics if the scaled configuration is structurally invalid (cannot
    /// happen for power-of-two `den` up to 1024).
    pub fn scaled(cores: usize, num: u64, den: u64) -> Self {
        let scale = |cap: u64, assoc: u32, line: u64| {
            let scaled = (cap * num / den).max(u64::from(assoc) * line);
            // Round down to the nearest valid power-of-two set count.
            let set_bytes = u64::from(assoc) * line;
            let sets = (scaled / set_bytes).max(1);
            let sets = if sets.is_power_of_two() {
                sets
            } else {
                sets.next_power_of_two() / 2
            };
            CacheConfig::new(sets * set_bytes, assoc, line).expect("scaled cache config")
        };
        HierarchyConfig {
            cores,
            l1: scale(64 * 1024, 4, 64),
            l2: scale(256 * 1024, 8, 64),
            llc: scale(8 * 1024 * 1024, 16, 64),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        }
    }
}

/// What happened below the core for one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// On-chip latency component in cycles (hit level latency; for LLC
    /// misses this is the LLC lookup latency — memory latency is added by
    /// the memory scheme).
    pub latency: u64,
    /// `Some(line address)` if the access missed the LLC and must go to
    /// memory.
    pub llc_miss: Option<PAddr>,
    /// A dirty LLC victim that must be written back to memory.
    pub writeback: Option<PAddr>,
    /// LLC events observed for this access (used by LGM/DFC).
    pub llc_fill: Option<PAddr>,
    /// Clean or dirty line evicted from the LLC (dirty ones also appear in
    /// `writeback`).
    pub llc_evict: Option<PAddr>,
}

/// Per-level aggregate statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups at this level.
    pub accesses: u64,
    /// Hits at this level.
    pub hits: u64,
}

/// Aggregate hierarchy statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 totals across cores.
    pub l1: LevelStats,
    /// L2 totals across cores.
    pub l2: LevelStats,
    /// Shared LLC totals.
    pub llc: LevelStats,
    /// Dirty LLC evictions, counted whether or not they reach memory: an
    /// access hands at most one dirty victim to the scheme
    /// ([`Outcome::writeback`], preferring the demand-path victim), so
    /// when one access evicts two, the spill victim is counted here but
    /// never sent.
    pub writebacks: u64,
}

impl HierarchyStats {
    /// LLC misses (demand stream to memory).
    pub fn llc_misses(&self) -> u64 {
        self.llc.accesses - self.llc.hits
    }

    /// Misses per kilo-instruction given a retired-instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.llc_misses() as f64 * 1000.0 / instructions as f64
        }
    }
}

/// The private-L1/L2 + shared-LLC filter.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    stats: HierarchyStats,
}

/// An LLC-level event fed to observers such as LGM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemLevelEvent {
    /// A line was filled into the LLC.
    Fill(PAddr),
    /// A line left the LLC (`dirty` = needs memory writeback).
    Evict {
        /// Address of the evicted line.
        addr: PAddr,
        /// Whether it was dirty.
        dirty: bool,
    },
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "hierarchy needs at least one core");
        Hierarchy {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            stats: HierarchyStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// LLC line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.llc.line_size()
    }

    /// True if `addr`'s line is resident in the shared LLC (LGM's probe).
    pub fn llc_contains(&self, addr: PAddr) -> bool {
        self.llc.probe(addr.raw())
    }

    /// Marks `addr`'s LLC line dirty if resident (LGM's "mark instead of
    /// migrate" optimization); returns whether it was resident.
    pub fn llc_mark_dirty(&mut self, addr: PAddr) -> bool {
        self.llc.mark_dirty(addr.raw())
    }

    /// The private-hit fast path of the epoch-batched machine loop: if
    /// `addr`'s line is resident in `core`'s L1, performs the access with
    /// mutations identical to [`Hierarchy::access`]'s L1-hit path (L1 LRU
    /// stamp, dirty bit, per-cache and aggregate counters) and returns
    /// `true`. Otherwise mutates **nothing** and returns `false`; the
    /// caller must replay the op through [`Hierarchy::access`] once it is
    /// globally ordered, and that replay counts the access exactly once.
    ///
    /// Only L1 hits qualify as core-local: an L1 miss can displace a dirty
    /// L1 victim into L2 and from there spill into the shared LLC, so
    /// everything below L1 belongs to the globally ordered path.
    ///
    /// This is the probe/credit split the *parallel* machine loop pulls
    /// apart: a speculation thread owning a detached L1 bank performs the
    /// bank half ([`SetAssocCache::access_if_hit`]) privately — it cannot
    /// touch these shared aggregate counters — and the hits are credited
    /// later, in one deterministic sum, via
    /// [`Hierarchy::credit_speculated_l1_hits`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn l1_access_fast(&mut self, core: usize, addr: PAddr, kind: AccessKind) -> bool {
        assert!(core < self.cfg.cores, "core {core} out of range");
        if self.l1[core].access_if_hit(addr.raw(), kind.is_write()) {
            self.stats.l1.accesses += 1;
            self.stats.l1.hits += 1;
            true
        } else {
            false
        }
    }

    /// Read-only residency probe of `core`'s private L1: `true` iff
    /// `addr`'s line is resident. Mutates nothing — not the LRU clock, not
    /// a counter — so a speculative probe can never perturb shared state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn l1_probe(&self, core: usize, addr: PAddr) -> bool {
        assert!(core < self.cfg.cores, "core {core} out of range");
        self.l1[core].probe(addr.raw())
    }

    /// Credits `hits` speculative L1 hits into the aggregate counters — the
    /// deferred half of [`Hierarchy::l1_access_fast`] for hits consumed on
    /// detached banks (see [`Hierarchy::detach_l1`]). Order-independent
    /// (u64 sums), so crediting per-core side buffers in any grouping
    /// yields byte-identical statistics.
    pub fn credit_speculated_l1_hits(&mut self, hits: u64) {
        self.stats.l1.accesses += hits;
        self.stats.l1.hits += hits;
    }

    /// Detaches the private L1 banks so the parallel machine loop can hand
    /// each speculation worker exclusive ownership of its core's bank.
    /// While detached, per-core accesses must go through
    /// [`Hierarchy::access_detached`]; reattach with
    /// [`Hierarchy::attach_l1`] before using [`Hierarchy::access`] again.
    pub fn detach_l1(&mut self) -> Vec<SetAssocCache> {
        std::mem::take(&mut self.l1)
    }

    /// Restores banks taken by [`Hierarchy::detach_l1`].
    ///
    /// # Panics
    ///
    /// Panics if the bank count does not match the configured core count.
    pub fn attach_l1(&mut self, banks: Vec<SetAssocCache>) {
        assert_eq!(banks.len(), self.cfg.cores, "L1 bank count mismatch");
        self.l1 = banks;
    }

    /// Runs one access from `core` through the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, or if the L1 banks are currently
    /// detached (see [`Hierarchy::detach_l1`]).
    pub fn access(&mut self, core: usize, addr: PAddr, kind: AccessKind) -> Outcome {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let Hierarchy {
            cfg,
            l1,
            l2,
            llc,
            stats,
        } = self;
        access_impl(cfg, &mut l1[core], &mut l2[core], llc, stats, addr, kind)
    }

    /// [`Hierarchy::access`] with `core`'s private L1 bank held outside the
    /// hierarchy — the parallel machine loop's drain path, where banks live
    /// in per-core slots that speculation workers take ownership of. Byte-
    /// identical to `access` on the same bank state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_detached(
        &mut self,
        l1: &mut SetAssocCache,
        core: usize,
        addr: PAddr,
        kind: AccessKind,
    ) -> Outcome {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let Hierarchy {
            cfg,
            l2,
            llc,
            stats,
            ..
        } = self;
        access_impl(cfg, l1, &mut l2[core], llc, stats, addr, kind)
    }

    /// Per-level raw cache statistics (L1s, L2s, LLC) for diagnostics.
    pub fn level_stats(&self) -> (Vec<CacheStats>, Vec<CacheStats>, CacheStats) {
        (
            self.l1.iter().map(|c| *c.stats()).collect(),
            self.l2.iter().map(|c| *c.stats()).collect(),
            *self.llc.stats(),
        )
    }
}

/// The body of [`Hierarchy::access`], over explicitly split borrows so the
/// same path serves attached banks (`access`) and detached ones
/// (`access_detached`) without duplicating the spill logic.
fn access_impl(
    cfg: &HierarchyConfig,
    l1: &mut SetAssocCache,
    l2: &mut SetAssocCache,
    llc: &mut SetAssocCache,
    stats: &mut HierarchyStats,
    addr: PAddr,
    kind: AccessKind,
) -> Outcome {
    let a = addr.raw();
    let write = kind.is_write();

    // L1.
    stats.l1.accesses += 1;
    let l1_out = l1.access(a, write);
    if l1_out.hit {
        stats.l1.hits += 1;
        return Outcome {
            latency: cfg.l1_latency,
            llc_miss: None,
            writeback: None,
            llc_fill: None,
            llc_evict: None,
        };
    }
    // L1 victim writebacks are absorbed by L2 (allocate-on-write below).
    let l1_victim = l1_out.evicted;

    // L2. Inserting a dirty L1 victim may itself displace a dirty L2
    // line, which must continue down to the LLC.
    stats.l2.accesses += 1;
    let mut spilled_by_l1_victim = None;
    if let Some(v) = l1_victim {
        if v.dirty {
            spilled_by_l1_victim = l2.access(v.line_addr, true).evicted;
        }
    }
    let l2_out = l2.access(a, false);
    let l2_victim = l2_out.evicted;
    if l2_out.hit {
        stats.l2.hits += 1;
        // Even on an L2 hit, displaced L2 victims may spill to the LLC.
        let wb = spill_to_llc(llc, stats, spilled_by_l1_victim)
            .or_else(|| spill_to_llc(llc, stats, l2_victim));
        return Outcome {
            latency: cfg.l2_latency,
            llc_miss: None,
            writeback: wb,
            llc_fill: None,
            llc_evict: None,
        };
    }

    // LLC (shared).
    stats.llc.accesses += 1;
    let spill = spill_to_llc(llc, stats, spilled_by_l1_victim)
        .or_else(|| spill_to_llc(llc, stats, l2_victim));
    let llc_out = llc.access(a, false);
    let mut writeback = spill;
    let mut llc_evict = None;
    if let Some(v) = llc_out.evicted {
        llc_evict = Some(PAddr::new(v.line_addr));
        if v.dirty {
            stats.writebacks += 1;
            // At most one dirty writeback per access reaches memory in
            // this model; prefer the demand-path victim.
            writeback = Some(PAddr::new(v.line_addr));
        }
    }
    if llc_out.hit {
        stats.llc.hits += 1;
        return Outcome {
            latency: cfg.llc_latency,
            llc_miss: None,
            writeback,
            llc_fill: None,
            llc_evict: None,
        };
    }

    Outcome {
        latency: cfg.llc_latency,
        llc_miss: Some(PAddr::new(llc.line_base(a))),
        writeback,
        llc_fill: Some(PAddr::new(llc.line_base(a))),
        llc_evict,
    }
}

/// Writes a dirty L2 victim into the LLC; returns a dirty LLC victim
/// displaced by the spill, if any.
fn spill_to_llc(
    llc: &mut SetAssocCache,
    stats: &mut HierarchyStats,
    victim: Option<crate::set_assoc::Evicted>,
) -> Option<PAddr> {
    let v = victim?;
    if !v.dirty {
        return None;
    }
    let out = llc.access(v.line_addr, true);
    let ev = out.evicted?;
    if ev.dirty {
        stats.writebacks += 1;
        Some(PAddr::new(ev.line_addr))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        // Small hierarchy: L1 256 B/2-way, L2 512 B/2-way, LLC 2 KB/4-way.
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig::new(256, 2, 64).unwrap(),
            l2: CacheConfig::new(512, 2, 64).unwrap(),
            llc: CacheConfig::new(2048, 4, 64).unwrap(),
            l1_latency: 1,
            l2_latency: 9,
            llc_latency: 14,
        })
    }

    #[test]
    fn repeat_access_hits_l1() {
        let mut h = tiny();
        let a = PAddr::new(0x1000);
        let first = h.access(0, a, AccessKind::Read);
        assert!(first.llc_miss.is_some());
        let second = h.access(0, a, AccessKind::Read);
        assert!(second.llc_miss.is_none());
        assert_eq!(second.latency, 1);
        assert_eq!(h.stats().l1.hits, 1);
    }

    #[test]
    fn private_l1s_do_not_share() {
        let mut h = tiny();
        let a = PAddr::new(0x1000);
        h.access(0, a, AccessKind::Read);
        // Core 1 misses its own L1/L2 but hits the shared LLC.
        let out = h.access(1, a, AccessKind::Read);
        assert!(out.llc_miss.is_none());
        assert_eq!(out.latency, 14);
        assert_eq!(h.stats().llc.hits, 1);
    }

    #[test]
    fn paper_default_shapes() {
        let h = Hierarchy::new(HierarchyConfig::paper_default(8));
        assert_eq!(h.line_size(), 64);
        assert_eq!(h.config().llc.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn llc_miss_reports_line_address() {
        let mut h = tiny();
        let out = h.access(0, PAddr::new(0x1234), AccessKind::Read);
        assert_eq!(out.llc_miss, Some(PAddr::new(0x1200)));
        assert_eq!(out.llc_fill, Some(PAddr::new(0x1200)));
    }

    #[test]
    fn mpki_accounting() {
        let mut h = tiny();
        for i in 0..10u64 {
            h.access(0, PAddr::new(i * 0x10000), AccessKind::Read);
        }
        assert_eq!(h.stats().llc_misses(), 10);
        assert!((h.stats().mpki(1000) - 10.0).abs() < 1e-12);
        assert_eq!(h.stats().mpki(0), 0.0);
    }

    #[test]
    fn dirty_data_eventually_writes_back() {
        let mut h = tiny();
        // Write lines mapping to the same LLC set until a dirty victim
        // reaches memory. LLC: 2048/4-way/64B -> 8 sets; stride 8*64=512.
        let mut saw_writeback = false;
        for i in 0..64u64 {
            let out = h.access(0, PAddr::new(i * 512), AccessKind::Write);
            saw_writeback |= out.writeback.is_some();
        }
        assert!(saw_writeback, "dirty lines must eventually write back");
        assert!(h.stats().writebacks > 0);
    }

    #[test]
    fn llc_probe_and_mark_dirty() {
        let mut h = tiny();
        let a = PAddr::new(0x4000);
        h.access(0, a, AccessKind::Read);
        assert!(h.llc_contains(a));
        assert!(h.llc_mark_dirty(a));
        assert!(!h.llc_contains(PAddr::new(0x8000)));
        assert!(!h.llc_mark_dirty(PAddr::new(0x8000)));
    }

    #[test]
    fn scaled_config_preserves_shape() {
        let c = HierarchyConfig::scaled(4, 1, 64);
        assert_eq!(c.l1.line_size(), 64);
        assert!(c.llc.capacity() >= c.l2.capacity());
        assert!(c.llc.capacity() <= 8 * 1024 * 1024);
        let _ = Hierarchy::new(c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut h = tiny();
        h.access(7, PAddr::new(0), AccessKind::Read);
    }

    /// Interleaving `l1_access_fast` (replaying its misses through the full
    /// path) with a reference hierarchy driven only by `access` must leave
    /// byte-identical state and statistics.
    #[test]
    fn l1_fast_path_is_equivalent_to_full_access() {
        let mut fast = tiny();
        let mut reference = tiny();
        let ops: [(usize, u64, AccessKind); 8] = [
            (0, 0x1000, AccessKind::Read),
            (0, 0x1000, AccessKind::Write), // L1 hit
            (1, 0x1000, AccessKind::Read),  // other core: own L1 miss
            (0, 0x1008, AccessKind::Read),  // L1 hit, same line
            (0, 0x2000, AccessKind::Write),
            (0, 0x2010, AccessKind::Read), // L1 hit
            (1, 0x1030, AccessKind::Read), // L1 hit on core 1
            (0, 0x1000, AccessKind::Read), // still an L1 hit
        ];
        for (core, addr, kind) in ops {
            let a = PAddr::new(addr);
            if !fast.l1_access_fast(core, a, kind) {
                fast.access(core, a, kind);
            }
            reference.access(core, a, kind);
        }
        assert_eq!(fast.stats().l1.accesses, reference.stats().l1.accesses);
        assert_eq!(fast.stats().l1.hits, reference.stats().l1.hits);
        assert_eq!(fast.stats().l2.accesses, reference.stats().l2.accesses);
        assert_eq!(fast.stats().llc.accesses, reference.stats().llc.accesses);
        let (l1a, l2a, llca) = fast.level_stats();
        let (l1b, l2b, llcb) = reference.level_stats();
        assert_eq!(l1a, l1b);
        assert_eq!(l2a, l2b);
        assert_eq!(llca, llcb);
    }

    /// Driving a hierarchy through detached banks (`access_detached` for
    /// misses, `access_if_hit` on the bank + deferred credit for hits) must
    /// be byte-identical to the attached fast path.
    #[test]
    fn detached_banks_are_equivalent_to_attached() {
        let mut det = tiny();
        let mut reference = tiny();
        let ops: [(usize, u64, AccessKind); 8] = [
            (0, 0x1000, AccessKind::Read),
            (0, 0x1000, AccessKind::Write),
            (1, 0x1000, AccessKind::Read),
            (0, 0x1008, AccessKind::Read),
            (0, 0x2000, AccessKind::Write),
            (0, 0x2010, AccessKind::Read),
            (1, 0x1030, AccessKind::Read),
            (0, 0x1000, AccessKind::Read),
        ];
        let mut banks = det.detach_l1();
        let mut speculated_hits = 0u64;
        for (core, addr, kind) in ops {
            let a = PAddr::new(addr);
            if banks[core].access_if_hit(a.raw(), kind.is_write()) {
                speculated_hits += 1;
            } else {
                det.access_detached(&mut banks[core], core, a, kind);
            }
            if !reference.l1_access_fast(core, a, kind) {
                reference.access(core, a, kind);
            }
        }
        det.attach_l1(banks);
        det.credit_speculated_l1_hits(speculated_hits);
        assert_eq!(det.stats(), reference.stats());
        assert_eq!(det.level_stats(), reference.level_stats());
    }

    /// `l1_probe` is a pure residency query: no counters, no LRU motion.
    #[test]
    fn l1_probe_is_read_only() {
        let mut h = tiny();
        let a = PAddr::new(0x1000);
        assert!(!h.l1_probe(0, a));
        h.access(0, a, AccessKind::Read);
        let stats_before = h.stats().clone();
        let levels_before = h.level_stats();
        assert!(h.l1_probe(0, a));
        assert!(!h.l1_probe(1, a));
        assert_eq!(h.stats(), &stats_before);
        assert_eq!(h.level_stats(), levels_before);
    }

    #[test]
    #[should_panic(expected = "bank count mismatch")]
    fn attaching_wrong_bank_count_panics() {
        let mut h = tiny();
        let mut banks = h.detach_l1();
        banks.pop();
        h.attach_l1(banks);
    }

    #[test]
    fn l1_fast_path_miss_changes_nothing() {
        let mut h = tiny();
        h.access(0, PAddr::new(0x1000), AccessKind::Read);
        let before = h.stats().clone();
        assert!(!h.l1_access_fast(1, PAddr::new(0x1000), AccessKind::Read));
        assert!(!h.l1_access_fast(0, PAddr::new(0x9000), AccessKind::Write));
        assert_eq!(h.stats().l1.accesses, before.l1.accesses);
        assert_eq!(h.stats().llc.accesses, before.llc.accesses);
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut h = tiny();
        let mut misses = 0;
        for i in 0..100u64 {
            if h.access(0, PAddr::new(i * 64), AccessKind::Read)
                .llc_miss
                .is_some()
            {
                misses += 1;
            }
        }
        assert_eq!(misses, 100, "cold streaming never hits");
    }
}

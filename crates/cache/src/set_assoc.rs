//! A generic set-associative, write-back, LRU cache.

use core::fmt;

/// Errors returned when constructing an invalid [`CacheConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Capacity must be non-zero and divisible into sets.
    BadCapacity {
        /// Offending capacity in bytes.
        capacity: u64,
        /// Bytes per set (`assoc * line`).
        set_bytes: u64,
    },
    /// Associativity must be non-zero.
    ZeroAssociativity,
    /// Line size must be a non-zero power of two.
    BadLineSize(u64),
    /// The derived set count must be a power of two (index bits).
    SetsNotPowerOfTwo(u64),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CacheConfigError::BadCapacity {
                capacity,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity} is not a non-zero multiple of the set size {set_bytes}"
            ),
            CacheConfigError::ZeroAssociativity => f.write_str("associativity must be non-zero"),
            CacheConfigError::BadLineSize(l) => {
                write!(f, "line size {l} is not a non-zero power of two")
            }
            CacheConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "derived set count {s} is not a power of two")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Size/shape of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    capacity: u64,
    assoc: u32,
    line: u64,
    sets: u64,
}

impl CacheConfig {
    /// Creates a configuration of `capacity` bytes, `assoc` ways and `line`
    /// bytes per line.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] unless capacity divides evenly into a
    /// power-of-two number of sets.
    pub fn new(capacity: u64, assoc: u32, line: u64) -> Result<Self, CacheConfigError> {
        if assoc == 0 {
            return Err(CacheConfigError::ZeroAssociativity);
        }
        if line == 0 || !line.is_power_of_two() {
            return Err(CacheConfigError::BadLineSize(line));
        }
        let set_bytes = u64::from(assoc) * line;
        if capacity == 0 || !capacity.is_multiple_of(set_bytes) {
            return Err(CacheConfigError::BadCapacity {
                capacity,
                set_bytes,
            });
        }
        let sets = capacity / set_bytes;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(sets));
        }
        Ok(CacheConfig {
            capacity,
            assoc,
            line,
            sets,
        })
    }

    /// Table 1 L1: 64 KB, 4-way, 64 B lines.
    pub fn l1() -> Self {
        Self::new(64 * 1024, 4, 64).expect("L1 constants are valid")
    }

    /// Table 1 L2: 256 KB, 8-way, 64 B lines.
    pub fn l2() -> Self {
        Self::new(256 * 1024, 8, 64).expect("L2 constants are valid")
    }

    /// Table 1 shared LLC: 8 MB, 16-way, 64 B lines.
    pub fn llc() -> Self {
        Self::new(8 * 1024 * 1024, 16, 64).expect("LLC constants are valid")
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Ways per set.
    pub fn associativity(&self) -> u32 {
        self.assoc
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }
}

/// One cache way, packed to 16 bytes so a 4-way set scan touches a single
/// cache line of the host: `meta` holds `stamp << 2 | dirty << 1 | valid`.
/// The LRU stamp is a per-cache access counter, so `stamp << 2` cannot
/// overflow before 2^62 accesses.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    meta: u64,
}

impl Way {
    const VALID: u64 = 1;
    const DIRTY: u64 = 2;

    #[inline]
    fn filled(tag: u64, dirty: bool, stamp: u64) -> Way {
        Way {
            tag,
            meta: (stamp << 2) | (u64::from(dirty) << 1) | Way::VALID,
        }
    }

    #[inline]
    fn valid(self) -> bool {
        self.meta & Way::VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.meta & Way::DIRTY != 0
    }

    #[inline]
    fn stamp(self) -> u64 {
        self.meta >> 2
    }
}

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// First byte address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (requires a writeback).
    pub dirty: bool,
}

/// Result of one [`SetAssocCache::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was already resident.
    pub hit: bool,
    /// A victim displaced by the allocation, if any.
    pub evicted: Option<Evicted>,
}

/// Hit/miss counters for one cache instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Dirty victims produced.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in [0, 1]; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A write-back, allocate-on-miss, true-LRU set-associative cache.
///
/// Addresses are byte addresses; the cache works at [`CacheConfig::line_size`]
/// granularity. This structure is used for the L1/L2/LLC SRAM levels and for
/// scheme metadata caches (where "addresses" are table-entry indices scaled
/// by an entry size).
///
/// The most recently hit or filled line is memoized as `(mru_line,
/// mru_way)`: a repeat access to that line updates the recorded way
/// directly instead of scanning its set. The memo is exact because only a
/// fill can displace a line and every fill re-points it, while
/// [`SetAssocCache::invalidate`] clears it. A cleared memo holds
/// `mru_way == usize::MAX`.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    mru_line: u64,
    mru_way: usize,
}

impl SetAssocCache {
    /// Builds a cache from a validated configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = vec![Way::default(); (cfg.sets * u64::from(cfg.assoc)) as usize];
        SetAssocCache {
            line_shift: cfg.line.trailing_zeros(),
            set_mask: cfg.sets - 1,
            set_shift: cfg.sets.trailing_zeros(),
            ways,
            stats: CacheStats::default(),
            clock: 0,
            mru_line: 0,
            mru_way: usize::MAX,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The `(set, tag)` of a line number.
    #[inline]
    fn set_of(&self, line: u64) -> (u64, u64) {
        (line & self.set_mask, line >> self.set_shift)
    }

    /// The memoized way, if `line` is the MRU line.
    #[inline]
    fn mru_way_of(&self, line: u64) -> Option<usize> {
        (line == self.mru_line && self.mru_way != usize::MAX).then_some(self.mru_way)
    }

    /// The way holding `line`, if resident: the memoized way when `line`
    /// is the MRU line, else found by scanning its set. Mutates nothing.
    #[inline]
    fn find_way(&self, line: u64) -> Option<usize> {
        if let Some(idx) = self.mru_way_of(line) {
            return Some(idx);
        }
        let (set, tag) = self.set_of(line);
        let start = (set * u64::from(self.cfg.assoc)) as usize;
        self.ways[start..start + self.cfg.assoc as usize]
            .iter()
            .position(|w| w.valid() && w.tag == tag)
            .map(|i| start + i)
    }

    /// The hit path: advances the clock, restamps way `idx` (which holds
    /// `line`) as most recently used, sets its dirty bit on a write,
    /// counts the hit and memoizes the line.
    #[inline]
    fn hit_way(&mut self, idx: usize, line: u64, write: bool) {
        self.clock += 1;
        let w = &mut self.ways[idx];
        w.meta = (self.clock << 2) | (w.meta & 3) | (u64::from(write) << 1);
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.mru_line = line;
        self.mru_way = idx;
    }

    /// Looks up `addr`, allocating it on miss (possibly evicting a victim).
    /// `write` marks the line dirty.
    ///
    /// A repeat of the last hit or filled line skips the set scan. Otherwise
    /// hit scan and victim scan are fused into one pass over a set sliced
    /// out once: a hit returns immediately; otherwise the pass has already
    /// found the first invalid way (preferred victim) and the LRU way.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        const HIT: Access = Access {
            hit: true,
            evicted: None,
        };
        let line = addr >> self.line_shift;
        if let Some(idx) = self.mru_way_of(line) {
            self.hit_way(idx, line, write);
            return HIT;
        }
        let (set, tag) = self.set_of(line);
        let start = (set * u64::from(self.cfg.assoc)) as usize;
        let ways = &self.ways[start..start + self.cfg.assoc as usize];

        let mut lru = 0usize;
        let mut lru_stamp = u64::MAX;
        let mut invalid: Option<usize> = None;
        for (i, w) in ways.iter().enumerate() {
            if w.valid() {
                if w.tag == tag {
                    self.hit_way(start + i, line, write);
                    return HIT;
                }
                if w.stamp() < lru_stamp {
                    lru_stamp = w.stamp();
                    lru = i;
                }
            } else if invalid.is_none() {
                invalid = Some(i);
            }
        }

        // Miss: fill the first invalid way, else evict the LRU victim.
        self.clock += 1;
        self.stats.accesses += 1;
        let victim_idx = start + invalid.unwrap_or(lru);
        let evicted = if invalid.is_some() {
            None
        } else {
            let w = self.ways[victim_idx];
            if w.dirty() {
                self.stats.dirty_evictions += 1;
            }
            Some(Evicted {
                line_addr: self.reconstruct(set, w.tag),
                dirty: w.dirty(),
            })
        };

        self.ways[victim_idx] = Way::filled(tag, write, self.clock);
        self.mru_line = line;
        self.mru_way = victim_idx;
        Access {
            hit: false,
            evicted,
        }
    }

    /// Performs the access only if `addr`'s line is resident, mutating
    /// exactly what the hit path of [`SetAssocCache::access`] would mutate
    /// (clock advance, LRU stamp, dirty bit, hit/access counters) and
    /// returning `true`. On a miss **nothing** changes — not even the LRU
    /// clock or the access counter — so replaying the same op through
    /// [`SetAssocCache::access`] later observes the state a plain call
    /// would have, with identical stamps and statistics.
    ///
    /// This is the private-cache fast path of the epoch-batched machine
    /// loop: a run-ahead core may consume L1 hits eagerly, but a miss must
    /// wait for global ordering and be replayed in full.
    #[inline]
    pub fn access_if_hit(&mut self, addr: u64, write: bool) -> bool {
        let line = addr >> self.line_shift;
        let Some(idx) = self.find_way(line) else {
            return false;
        };
        self.hit_way(idx, line, write);
        true
    }

    /// Non-allocating residency probe.
    pub fn probe(&self, addr: u64) -> bool {
        self.find_way(addr >> self.line_shift).is_some()
    }

    /// Marks a resident line dirty without affecting LRU; returns whether the
    /// line was resident. Used by LGM's "mark instead of migrate" policy.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let Some(idx) = self.find_way(addr >> self.line_shift) else {
            return false;
        };
        self.ways[idx].meta |= Way::DIRTY;
        true
    }

    /// Removes a line; returns `Some(dirty)` if it was resident. Clears the
    /// MRU memo.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let idx = self.find_way(addr >> self.line_shift);
        self.mru_way = usize::MAX;
        let w = &mut self.ways[idx?];
        let dirty = w.dirty();
        w.meta &= !(Way::VALID | Way::DIRTY);
        Some(dirty)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> u64 {
        self.ways.iter().filter(|w| w.valid()).count() as u64
    }

    /// Iterates over the addresses of all resident lines (diagnostics/tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        let assoc = u64::from(self.cfg.assoc);
        self.ways.iter().enumerate().filter_map(move |(i, w)| {
            if w.valid() {
                Some(self.reconstruct(i as u64 / assoc, w.tag))
            } else {
                None
            }
        })
    }

    #[inline]
    fn reconstruct(&self, set: u64, tag: u64) -> u64 {
        ((tag << self.set_shift) | set) << self.line_shift
    }

    /// Aligns an arbitrary byte address down to its line base.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B = 512 B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap())
    }

    #[test]
    fn config_presets_match_table_1() {
        assert_eq!(CacheConfig::l1().capacity(), 64 * 1024);
        assert_eq!(CacheConfig::l1().associativity(), 4);
        assert_eq!(CacheConfig::l2().capacity(), 256 * 1024);
        assert_eq!(CacheConfig::llc().capacity(), 8 * 1024 * 1024);
        assert_eq!(CacheConfig::llc().associativity(), 16);
    }

    #[test]
    fn config_rejects_bad_shapes() {
        assert!(matches!(
            CacheConfig::new(0, 4, 64),
            Err(CacheConfigError::BadCapacity { .. })
        ));
        assert_eq!(
            CacheConfig::new(1024, 0, 64),
            Err(CacheConfigError::ZeroAssociativity)
        );
        assert_eq!(
            CacheConfig::new(1024, 4, 60),
            Err(CacheConfigError::BadLineSize(60))
        );
        // 3 sets.
        assert!(matches!(
            CacheConfig::new(3 * 2 * 64, 2, 64),
            Err(CacheConfigError::SetsNotPowerOfTwo(3))
        ));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line, different byte");
        assert!(!c.access(64, false).hit, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines whose (line index % 4) == 0: 0, 256, 512...
        c.access(0, false);
        c.access(256, false);
        // Touch line 0 so 256 becomes LRU.
        c.access(0, false);
        let out = c.access(512, false);
        assert!(!out.hit);
        assert_eq!(out.evicted.unwrap().line_addr, 256);
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = small();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts 0 (LRU)
        let ev = out.evicted.unwrap();
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(256, false);
        let ev = c.access(512, false).evicted.unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn eviction_reconstructs_full_address() {
        let mut c = small();
        let addr = 0x1_2340; // line base 0x12340, set = (0x12340>>6)&3
        c.access(addr, false);
        // Fill the same set with two more lines to force eviction.
        let set_stride = 4 * 64; // sets * line
        c.access(addr + set_stride, false);
        let ev = c.access(addr + 2 * set_stride, false).evicted.unwrap();
        assert_eq!(ev.line_addr, c.line_base(addr));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = small();
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.probe(0));
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = small();
        assert!(!c.mark_dirty(0));
        c.access(0, false);
        assert!(c.mark_dirty(0));
        assert_eq!(c.invalidate(0), Some(true));
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.occupancy(), 2);
        let mut lines: Vec<u64> = c.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 64]);
    }

    #[test]
    fn associativity_capacity_exact() {
        let mut c = small(); // 2-way
        c.access(0, false);
        c.access(256, false);
        // Both fit; neither evicted.
        assert!(c.probe(0) && c.probe(256));
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn access_if_hit_miss_mutates_nothing() {
        let mut c = small();
        c.access(0, false);
        let stats_before = *c.stats();
        assert!(!c.access_if_hit(256, false), "cold line cannot fast-hit");
        assert_eq!(*c.stats(), stats_before, "miss path must not count");
        assert!(!c.probe(256), "miss path must not allocate");
        // The replayed full access behaves exactly like a first touch.
        assert!(!c.access(256, false).hit);
        assert!(c.probe(256));
    }

    /// Driving one cache through `access_if_hit`-then-replay and another
    /// through plain `access` leaves byte-identical state: same stats, same
    /// resident lines, same LRU victim choice afterwards.
    #[test]
    fn access_if_hit_is_equivalent_to_access_hit_path() {
        let mut fast = small();
        let mut reference = small();
        // Mixed hits/misses within one set (stride 256 maps to set 0).
        let ops: [(u64, bool); 9] = [
            (0, false),
            (0, true),
            (256, false),
            (0, false),
            (256, true),
            (512, false), // evicts; exercises post-divergence-risk state
            (0, false),
            (512, false),
            (256, false),
        ];
        for (addr, write) in ops {
            if !fast.access_if_hit(addr, write) {
                fast.access(addr, write);
            }
            reference.access(addr, write);
        }
        assert_eq!(*fast.stats(), *reference.stats());
        let mut a: Vec<u64> = fast.resident_lines().collect();
        let mut b: Vec<u64> = reference.resident_lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Same next victim: LRU stamps must agree, not just residency.
        assert_eq!(fast.access(768, false), reference.access(768, false));
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A memo-free true-LRU reference: every operation scans its set. Each
    /// way holds `(line number, dirty, last use)`; a fill takes the first
    /// empty way, else the least recently used one.
    struct LruModel {
        line: u64,
        sets: Vec<Vec<Option<(u64, bool, u64)>>>,
        clock: u64,
        stats: CacheStats,
    }

    impl LruModel {
        fn new(cfg: CacheConfig) -> Self {
            LruModel {
                line: cfg.line_size(),
                sets: vec![vec![None; cfg.associativity() as usize]; cfg.sets() as usize],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn find(&mut self, addr: u64) -> Option<&mut (u64, bool, u64)> {
            let line = addr / self.line;
            let n = self.sets.len() as u64;
            self.sets[(line % n) as usize]
                .iter_mut()
                .flatten()
                .find(|w| w.0 == line)
        }

        fn access_if_hit(&mut self, addr: u64, write: bool) -> bool {
            self.clock += 1;
            let clock = self.clock;
            let Some(w) = self.find(addr) else {
                return false;
            };
            w.1 |= write;
            w.2 = clock;
            self.stats.accesses += 1;
            self.stats.hits += 1;
            true
        }

        fn access(&mut self, addr: u64, write: bool) -> Access {
            if self.access_if_hit(addr, write) {
                return Access {
                    hit: true,
                    evicted: None,
                };
            }
            self.stats.accesses += 1;
            let line = addr / self.line;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let slot = set.iter().position(Option::is_none).unwrap_or_else(|| {
                (0..set.len())
                    .min_by_key(|&i| set[i].map_or(0, |w| w.2))
                    .unwrap()
            });
            let evicted = set[slot].map(|(l, dirty, _)| Evicted {
                line_addr: l * self.line,
                dirty,
            });
            if evicted.is_some_and(|e| e.dirty) {
                self.stats.dirty_evictions += 1;
            }
            set[slot] = Some((line, write, self.clock));
            Access {
                hit: false,
                evicted,
            }
        }

        fn invalidate(&mut self, addr: u64) -> Option<bool> {
            let line = addr / self.line;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let i = set.iter().position(|w| w.is_some_and(|w| w.0 == line))?;
            set[i].take().map(|w| w.1)
        }

        fn mark_dirty(&mut self, addr: u64) -> bool {
            self.find(addr).map(|w| w.1 = true).is_some()
        }

        fn resident_lines(&self) -> Vec<u64> {
            let mut lines: Vec<u64> = self
                .sets
                .iter()
                .flatten()
                .flatten()
                .map(|w| w.0 * self.line)
                .collect();
            lines.sort_unstable();
            lines
        }
    }

    proptest! {
        /// The most recently touched line of a set is never the next victim.
        #[test]
        fn mru_line_survives_next_miss(addrs in proptest::collection::vec(0u64..4096, 1..200)) {
            let mut c = SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap());
            let mut last: Option<u64> = None;
            for a in addrs {
                let out = c.access(a, false);
                if let (Some(prev), Some(ev)) = (last, out.evicted) {
                    prop_assert_ne!(c.line_base(prev), ev.line_addr,
                        "evicted the most recently used line");
                }
                last = Some(a);
            }
        }

        /// Occupancy never exceeds total way count and probes agree with
        /// the resident-line iterator.
        #[test]
        fn occupancy_bounded_and_consistent(addrs in proptest::collection::vec(0u64..65536, 1..300)) {
            let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64).unwrap());
            for a in addrs {
                c.access(a, a % 3 == 0);
            }
            prop_assert!(c.occupancy() <= 16); // 4 sets x 4 ways
            for line in c.resident_lines() {
                prop_assert!(c.probe(line));
            }
        }

        /// A line is resident immediately after being accessed.
        #[test]
        fn accessed_line_is_resident(addrs in proptest::collection::vec(0u64..1u64<<20, 1..300)) {
            let mut c = SetAssocCache::new(CacheConfig::new(2048, 2, 64).unwrap());
            for a in addrs {
                c.access(a, false);
                prop_assert!(c.probe(a));
            }
        }

        /// The MRU-line shortcut is invisible: random mixes of `access`,
        /// `access_if_hit`, `invalidate` and `mark_dirty`, half of them
        /// repeating the previous op's line, return what a memo-free
        /// true-LRU model returns and leave the same statistics, resident
        /// lines and next victim in every set.
        #[test]
        fn mru_shortcut_matches_true_lru_model(
            ops in proptest::collection::vec(
                (0u8..5, 0u64..4096, any::<bool>(), any::<bool>()),
                1..400,
            )
        ) {
            for (capacity, assoc, line) in [(512, 2, 64), (1024, 4, 32)] {
                let cfg = CacheConfig::new(capacity, assoc, line).unwrap();
                let mut cache = SetAssocCache::new(cfg);
                let mut model = LruModel::new(cfg);
                let mut prev = 0u64;
                for &(op, fresh, write, repeat) in &ops {
                    let addr = if repeat {
                        prev - prev % line + fresh % line
                    } else {
                        fresh
                    };
                    prev = addr;
                    match op {
                        0 | 1 => prop_assert_eq!(cache.access(addr, write), model.access(addr, write)),
                        2 => prop_assert_eq!(
                            cache.access_if_hit(addr, write),
                            model.access_if_hit(addr, write)
                        ),
                        3 => prop_assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
                        _ => prop_assert_eq!(cache.mark_dirty(addr), model.mark_dirty(addr)),
                    }
                }
                prop_assert_eq!(*cache.stats(), model.stats);
                let mut resident: Vec<u64> = cache.resident_lines().collect();
                resident.sort_unstable();
                prop_assert_eq!(resident, model.resident_lines());
                // A line of an unused tag in every set exposes each set's
                // next victim.
                for set in 0..cfg.sets() {
                    let addr = (set + cfg.sets() * 4096) * line;
                    prop_assert_eq!(cache.access(addr, false), model.access(addr, false));
                }
            }
        }

        /// hits + misses == accesses.
        #[test]
        fn stats_balance(addrs in proptest::collection::vec(0u64..8192, 1..200)) {
            let mut c = SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap());
            for a in addrs.iter() {
                c.access(*a, false);
            }
            prop_assert_eq!(c.stats().hits + c.stats().misses(), addrs.len() as u64);
        }
    }
}

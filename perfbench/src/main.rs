//! Host-time benchmark of the Hybrid2 simulator.
//!
//! ```text
//! perfbench gate --root <checkout>
//! perfbench run --workload <stream|chase|grid-queued8> --seed <n>
//!               --seconds <s> --trace <0|1> --gate <ok|fail>
//! ```
//!
//! `gate` renders the built-in scenario grid exactly as
//! `reproduce scenario all --ratio 1gb --scale 1024 --instrs 200000` does,
//! under both service models, and compares it byte for byte with the
//! checkout's `goldens/` files (exit 0 on a match, 1 otherwise).
//!
//! `run --trace 0` times one workload end to end over repeated closed
//! batches of cells: simulated mem-ops per host second, set-up time and
//! peak resident memory. `run --trace 1` is the separate
//! traced run behind the per-layer ledger (see [`ledger`]). Both print
//! human-readable lines first and one JSON object as the last line.

mod ledger;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dram::DramSystem;
use mem_cache::Hierarchy;
use sim::{
    build_scheme, run_one_timed, scenario, scheme_label, EvalConfig, Machine, NmRatio, RunResult,
    ScaledSystem, SchemeKind, ServiceModel,
};
use workloads::{catalog, scenarios, Workload, WorkloadSpec};

/// The seed the benchmark's figures are tuned and quoted on.
const DEFAULT_SEED: u64 = 2020;
/// The seed held back from tuning: a gain claimed on [`DEFAULT_SEED`] is
/// re-checked here before it is believed.
const HELD_OUT_SEED: u64 = 6053;
/// Capacity divisor of every input (1/1024 of the paper's system).
const SCALE_DEN: u64 = 1024;
/// NM capacity: 1 GB at paper scale, 1:16 against FM.
const RATIO: NmRatio = NmRatio::OneGb;
/// Simulated cores per cell.
const CORES: usize = 8;
/// Set-ups timed before each batch; the median over the run is reported.
const SETUP_REPS: usize = 5;
/// A timed run makes at least this many batches, however short `--seconds`.
const MIN_BATCHES: usize = 3;

/// One named workload: a closed batch of cells, each a (scheme, input)
/// simulation run to completion.
#[derive(Clone, Debug)]
struct Plan {
    /// Workload name as the command line spells it.
    name: &'static str,
    /// The inputs, in order.
    specs: Vec<WorkloadSpec>,
    /// Memory-service model of every cell.
    service: ServiceModel,
    /// Host threads the batch runs on (1 = cells one after another).
    threads: usize,
    /// Instructions each simulated core retires.
    instrs_per_core: u64,
}

impl Plan {
    fn by_name(name: &str) -> Option<Plan> {
        let lookup = |n: &str| catalog::by_name(n).expect("catalog input").clone();
        Some(match name {
            "stream" => Plan {
                name: "stream",
                specs: vec![lookup("lbm")],
                service: ServiceModel::Unbounded,
                threads: 1,
                instrs_per_core: 2_000_000,
            },
            "chase" => Plan {
                name: "chase",
                specs: vec![lookup("mcf"), lookup("omnetpp")],
                service: ServiceModel::Unbounded,
                threads: 1,
                instrs_per_core: 1_500_000,
            },
            "grid-queued8" => Plan {
                name: "grid-queued8",
                specs: scenario::workloads_of(&builtin_scenarios()),
                service: ServiceModel::Queued { depth: 8 },
                threads: 2,
                instrs_per_core: 400_000,
            },
            _ => return None,
        })
    }

    /// The simulation size every cell of this plan runs at.
    fn config(&self, seed: u64) -> EvalConfig {
        EvalConfig {
            scale_den: SCALE_DEN,
            instrs_per_core: self.instrs_per_core,
            seed,
            threads: self.threads,
            service: self.service,
            ..EvalConfig::smoke()
        }
    }

    /// Every cell in matrix slot order: the baseline row over all inputs,
    /// then each MAIN scheme's row.
    fn cells(&self) -> Vec<(SchemeKind, &WorkloadSpec)> {
        schemes()
            .into_iter()
            .flat_map(|k| self.specs.iter().map(move |s| (k, s)))
            .collect()
    }

    /// Runs the whole batch once through the public entry points
    /// (`run_one_timed` per cell, or `scenario::run_grid_timed` for the
    /// threaded grid). Returns results in slot order, per-cell seconds and
    /// the batch's wall-clock seconds.
    fn run_batch(&self, cfg: &EvalConfig) -> (Vec<RunResult>, Vec<f64>, f64) {
        let started = Instant::now();
        if self.threads == 1 {
            let (results, secs) = self
                .cells()
                .into_iter()
                .map(|(kind, spec)| run_one_timed(kind, spec, RATIO, cfg))
                .unzip();
            (results, secs, started.elapsed().as_secs_f64())
        } else {
            let (m, secs) = scenario::run_grid_timed(&builtin_scenarios(), RATIO, cfg);
            let wall = started.elapsed().as_secs_f64();
            let mut results = m.baseline;
            results.extend(m.schemes.into_iter().flat_map(|row| row.runs));
            (results, secs, wall)
        }
    }
}

/// Baseline plus the six head-to-head schemes, in matrix row order.
fn schemes() -> Vec<SchemeKind> {
    std::iter::once(SchemeKind::Baseline)
        .chain(SchemeKind::MAIN)
        .collect()
}

fn builtin_scenarios() -> Vec<&'static workloads::Scenario> {
    scenario::select(scenarios::builtin(), "all").expect("\"all\" always selects")
}

/// The simulated system every cell runs on.
fn system(cfg: &EvalConfig) -> ScaledSystem {
    ScaledSystem::new(RATIO, cfg.scale_den)
}

/// Assembles one cell's machine exactly as `run_one` does, without running it.
fn build_machine(kind: SchemeKind, spec: &WorkloadSpec, cfg: &EvalConfig) -> Machine {
    let sys = system(cfg);
    Machine::new(
        CORES,
        Hierarchy::new(sys.hierarchy()),
        build_scheme(kind, &sys),
        DramSystem::paper_default().with_service(cfg.service),
        Workload::build(spec, CORES, cfg.scale_den, cfg.seed),
        cfg.seed,
    )
}

/// The simulated statistics of one cell, floats as raw bits, in a fixed
/// field order: two cells agree exactly when every entry agrees.
fn sim_fields(r: &RunResult) -> Vec<(&'static str, String)> {
    let s = &r.stats;
    vec![
        ("scheme", r.scheme.to_owned()),
        ("workload", r.workload.clone()),
        ("cycles", r.cycles.to_string()),
        ("instructions", r.instructions.to_string()),
        ("mem_ops", r.mem_ops.to_string()),
        ("mpki", format!("{:#x}", r.mpki.to_bits())),
        ("nm_served", format!("{:#x}", r.nm_served.to_bits())),
        ("fm_traffic", r.fm_traffic.to_string()),
        ("nm_traffic", r.nm_traffic.to_string()),
        ("energy_mj", format!("{:#x}", r.energy_mj.to_bits())),
        ("footprint", r.footprint.to_string()),
        ("nm_queue_mean", format!("{:#x}", r.nm_queue_mean.to_bits())),
        ("nm_queue_max", r.nm_queue_max.to_string()),
        ("fm_queue_mean", format!("{:#x}", r.fm_queue_mean.to_bits())),
        ("fm_queue_max", r.fm_queue_max.to_string()),
        ("stats.requests", s.requests.to_string()),
        ("stats.reads", s.reads.to_string()),
        ("stats.writes", s.writes.to_string()),
        ("stats.served_from_nm", s.served_from_nm.to_string()),
        ("stats.lookup_hits", s.lookup_hits.to_string()),
        ("stats.lookup_misses", s.lookup_misses.to_string()),
        ("stats.moved_into_nm", s.moved_into_nm.to_string()),
        ("stats.moved_out_of_nm", s.moved_out_of_nm.to_string()),
        ("stats.dirty_writebacks", s.dirty_writebacks.to_string()),
        ("stats.metadata_reads", s.metadata_reads.to_string()),
        ("stats.metadata_writes", s.metadata_writes.to_string()),
        ("stats.fetched_bytes", s.fetched_bytes.to_string()),
        ("stats.used_bytes", s.used_bytes.to_string()),
    ]
}

/// `None` when `a` and `b` carry identical simulated statistics, else the
/// first field that differs with both values.
fn first_difference(a: &RunResult, b: &RunResult) -> Option<String> {
    sim_fields(a)
        .into_iter()
        .zip(sim_fields(b))
        .find(|(x, y)| x.1 != y.1)
        .map(|((field, x), (_, y))| format!("{field} differs: {x} vs {y}"))
}

/// Checks that hold for every finished cell, whatever the scheme.
fn sanity(
    r: &RunResult,
    kind: SchemeKind,
    spec: &WorkloadSpec,
    cfg: &EvalConfig,
) -> Option<String> {
    let target = CORES as u64 * cfg.instrs_per_core;
    let slack = CORES as u64 * (2 * u64::from(spec.pattern.max_mem_every(spec.mem_every)) + 1);
    let s = &r.stats;
    if r.instructions < target || r.instructions >= target + slack {
        Some(format!(
            "instructions {} outside [{target}, {})",
            r.instructions,
            target + slack
        ))
    } else if r.cycles == 0 || r.mem_ops == 0 {
        Some("no simulated time or no memory ops".into())
    } else if s.requests != s.reads + s.writes
        || (kind != SchemeKind::Baseline && s.requests != s.lookup_hits + s.lookup_misses)
    {
        Some("scheme request split does not balance".into())
    } else if !(0.0..=1.0).contains(&r.nm_served) || !r.energy_mj.is_finite() {
        Some(format!(
            "nm_served {} or energy {} out of range",
            r.nm_served, r.energy_mj
        ))
    } else {
        None
    }
}

/// Tally of checked cells and the reasons the failing ones failed.
#[derive(Default)]
struct Tally {
    /// Cells simulated and checked.
    attempted: u64,
    /// Failure reason per failing cell label.
    failures: BTreeMap<String, String>,
    /// Count of failing cell runs.
    failed: u64,
}

impl Tally {
    /// Counts one checked cell run, failing it if `problem` is set.
    fn check(&mut self, cell: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.entry(cell.to_owned()).or_insert(p);
        }
    }
}

/// Label of one cell for messages.
fn cell_label(kind: SchemeKind, spec: &WorkloadSpec) -> String {
    format!("{}/{}", scheme_label(kind), spec.name)
}

/// Checks a batch's results against the first batch's (determinism) and
/// the per-cell sanity rules.
fn check_batch(
    plan: &Plan,
    cfg: &EvalConfig,
    first: &[RunResult],
    results: &[RunResult],
    tally: &mut Tally,
) {
    for (((kind, spec), r), r0) in plan.cells().into_iter().zip(results).zip(first) {
        let problem = first_difference(r0, r)
            .map(|d| format!("not deterministic across batches: {d}"))
            .or_else(|| sanity(r, kind, spec, cfg));
        tally.check(&cell_label(kind, spec), problem);
    }
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host seconds to build every cell's catalog, schemes, workloads,
/// hierarchies and DRAM, as `run_one` and `run_grid_timed` do before the
/// first simulated op.
fn setup_seconds(plan: &Plan, cfg: &EvalConfig) -> f64 {
    let started = Instant::now();
    let cat = scenarios::builtin().clone();
    let machines: Vec<Machine> = plan
        .cells()
        .into_iter()
        .map(|(kind, spec)| build_machine(kind, spec, cfg))
        .collect();
    let secs = started.elapsed().as_secs_f64();
    drop(std::hint::black_box((cat, machines)));
    secs
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated (model) figures of one batch: per MAIN scheme, the geomean
/// speedup over the baseline across the inputs and the mean NM-served share.
fn model_metrics(plan: &Plan, results: &[RunResult]) -> Vec<Metric> {
    let n = plan.specs.len();
    let base = &results[..n];
    let mut out = Vec::new();
    for (row, kind) in SchemeKind::MAIN.iter().enumerate() {
        let runs = &results[(row + 1) * n..(row + 2) * n];
        let log_sum: f64 = runs
            .iter()
            .zip(base)
            .map(|(r, b)| (b.cycles as f64 / r.cycles as f64).ln())
            .sum();
        let served = runs.iter().map(|r| r.nm_served).sum::<f64>() / n as f64;
        let label = scheme_label(*kind);
        out.push(Metric::new(
            format!("model.{label}.speedup"),
            (log_sum / n as f64).exp(),
            "x",
        ));
        out.push(Metric::new(
            format!("model.{label}.nm_served"),
            served,
            "fraction",
        ));
    }
    out
}

/// One reported figure.
#[derive(Clone, Debug)]
struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    name: String,
    /// Measured value.
    value: f64,
    /// Unit.
    unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The closing JSON line. Non-finite values (never expected) print as 0
/// so the line stays valid JSON.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// The timed (untraced) run: closed batches until `seconds` have gone by,
/// each preceded by [`SETUP_REPS`] timed set-ups. Throughput is the median
/// over batches of the batch's mem-ops per wall-clock second.
fn timed_run(plan: &Plan, cfg: &EvalConfig, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Vec<RunResult>> = None;
    while rates.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        setups.extend((0..SETUP_REPS).map(|_| setup_seconds(plan, cfg)));
        let (results, _, wall) = plan.run_batch(cfg);
        let ops: u64 = results.iter().map(|r| r.mem_ops).sum();
        rates.push(ops as f64 / wall);
        check_batch(
            plan,
            cfg,
            first.get_or_insert_with(|| results.clone()),
            &results,
            tally,
        );
    }
    let first = first.expect("at least one batch ran");
    println!(
        "timed: {} batches of {} cells ({} mem-ops each) in {:.1} s; mem-ops/s per batch: {}",
        rates.len(),
        first.len(),
        first.iter().map(|r| r.mem_ops).sum::<u64>(),
        started.elapsed().as_secs_f64(),
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for m in model_metrics(plan, &first) {
        println!(
            "  (simulated, checked not scored) {} = {:.4} {}",
            m.name, m.value, m.unit
        );
    }
    vec![
        Metric::new("mem_ops_per_s", median(&rates), "1/s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Renders the built-in grid as `reproduce scenario all` prints it.
fn render_builtin_grid(service: ServiceModel) -> String {
    let cfg = EvalConfig {
        scale_den: SCALE_DEN,
        instrs_per_core: 200_000,
        seed: DEFAULT_SEED,
        threads: 2,
        service,
        ..EvalConfig::smoke()
    };
    let (m, _) = scenario::run_grid_timed(&builtin_scenarios(), RATIO, &cfg);
    scenario::grid_reports(&m)
        .iter()
        .map(|r| format!("{}\n", r.render()))
        .collect()
}

/// The golden gate: both service models' grid output against the
/// checkout's pinned goldens.
fn gate(root: &Path) -> bool {
    let mut ok = true;
    for (service, file) in [
        (ServiceModel::Unbounded, "goldens/scenario-builtins-1gb.txt"),
        (
            ServiceModel::Queued { depth: 8 },
            "goldens/scenario-builtins-1gb-queued8.txt",
        ),
    ] {
        let got = render_builtin_grid(service);
        match std::fs::read_to_string(root.join(file)) {
            Ok(want) if want == got => println!("gate: {file}: byte-identical"),
            Ok(want) => {
                ok = false;
                let line = want.lines().zip(got.lines()).position(|(a, b)| a != b);
                println!("gate: {file}: MISMATCH (first differing line {line:?})");
            }
            Err(e) => {
                ok = false;
                println!("gate: {file}: unreadable: {e}");
            }
        }
    }
    ok
}

struct RunArgs {
    plan: Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    gate_ok: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut plan = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut gate_ok = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => plan = Some(Plan::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--gate" => {
                gate_ok = Some(match value.as_str() {
                    "ok" => true,
                    "fail" => false,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        plan: plan.ok_or("--workload is required (stream, chase, grid-queued8)")?,
        seed,
        seconds,
        trace,
        gate_ok: gate_ok.ok_or("--gate is required (ok, fail)")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gate") if args.len() == 3 && args[1] == "--root" => {
            if gate(Path::new(&args[2])) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("run") => match parse_run(&args[1..]) {
            Ok(a) => run(a),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: perfbench gate --root DIR | perfbench run --workload W --seed N --seconds S --trace 0|1 --gate ok|fail");
            ExitCode::from(2)
        }
    }
}

fn run(a: RunArgs) -> ExitCode {
    let cfg = a.plan.config(a.seed);
    println!(
        "workload {}: {} inputs x {} schemes = {} cells, NM {}, 1/{} scale, {} instrs/core, {:?}, {} thread(s), seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}), caches and scheme state start empty",
        a.plan.name,
        a.plan.specs.len(),
        schemes().len(),
        a.plan.cells().len(),
        RATIO.label(),
        SCALE_DEN,
        cfg.instrs_per_core,
        cfg.service,
        cfg.threads,
        a.seed,
    );
    let mut tally = Tally::default();
    let metrics = if a.trace {
        ledger::traced_run(&a.plan, &cfg, a.seconds, &mut tally)
    } else {
        timed_run(&a.plan, &cfg, a.seconds, &mut tally)
    };
    if !a.gate_ok {
        // A golden mismatch means the simulator under test is not the one
        // the figures describe: every cell of the run counts as failed.
        tally.failed = tally.attempted;
        tally.failures.insert(
            "golden gate".into(),
            "scenario output differs from goldens/".into(),
        );
    }
    for (cell, why) in &tally.failures {
        println!("FAILED {cell}: {why}");
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}

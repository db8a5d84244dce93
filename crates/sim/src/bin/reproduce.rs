//! Command-line entry point for reproducing the paper's evaluation.
//!
//! ```text
//! cargo run -p sim --release --bin reproduce -- --exp fig12 [options]
//! cargo run -p sim --release --bin reproduce -- scenario <name|all> [options]
//! cargo run -p sim --release --bin reproduce -- merge <file>... [--out FILE]
//! cargo run -p sim --release --bin reproduce -- query <dir|file>... [filters]
//! cargo run -p sim --release --bin reproduce -- serve <grid> [options]
//! cargo run -p sim --release --bin reproduce -- worker <host:port> [options]
//!
//! options:
//!   --exp <id>        experiment id (fig01..fig18, table2, abl-budget,
//!                     abl-stack, evalsuite, all)          [default: evalsuite]
//!   --scale <den>     capacity divisor vs the paper's system, a power of
//!                     two in 1..=2048                     [default: 64]
//!   --instrs <n>      instructions per core per run       [default: 300000]
//!   --smoke           run the 3-benchmark smoke set instead of all 30
//!   --seed <n>        RNG seed                            [default: 2020]
//!   --threads <n>     worker threads                      [default: #cpus]
//!   --batch <n>       ops-per-pick cap of the epoch-batched machine loop;
//!                     1 = per-op reference scheduling. Results are
//!                     byte-identical for every value (CI `cmp`s batched
//!                     vs `--batch 1` output)          [default: 4096]
//!   --machine-threads <n>  scoped worker threads stepping each machine's
//!                     cores concurrently (optimistic run-ahead windows);
//!                     1 = today's single-threaded schedule. Results are
//!                     byte-identical for every value (CI `cmp`s
//!                     `--machine-threads 2/4` vs the reference) [default: 1]
//!   --service <model> memory-service model: unbounded (closed-form
//!                     reference) or queued[:depth] (bounded per-channel/
//!                     per-bank service queues with backpressure; depth
//!                     defaults to 8). Unlike --batch/--machine-threads
//!                     this knob CHANGES results — queued latencies grow
//!                     under contention             [default: unbounded]
//!   --shard <K/N>     run only slice K of an N-way split of the grid and
//!                     emit the machine-readable shard cells instead of the
//!                     rendered reports (evalsuite / scenario grids only)
//!   --runlog <dir>    append one structured run record per simulated grid
//!                     cell to <dir> (evalsuite / scenario grids only);
//!                     query the accumulated records with `reproduce query`
//!   --out <file>      write output to <file> instead of stdout
//!   --list            list experiment ids and exit
//!
//! scenario subcommand (phased / multi-program workloads):
//!   scenario <name|all>   run one named scenario or the whole catalog
//!   --ratio <1gb|2gb|4gb> NM:FM ratio                     [default: 1gb]
//!   --spec <file>         use the catalog compiled from a declarative
//!                         `.scn` spec file instead of the built-ins
//!                         (see README "Declarative scenarios"); spec
//!                         errors report file:line:col and exit 2
//!   --generate <n>        use a generated catalog of <n> scenarios
//!                         (pure function of <n> and --seed; the first
//!                         100 outputs at seed 2020 are pinned in CI)
//!   --list                list the active scenario catalog and exit
//!   (--scale/--instrs/--seed/--threads/--batch/--machine-threads/
//!   --service/--shard/--runlog/--out
//!   apply as above)
//!
//! merge subcommand (reassemble a sharded run):
//!   merge <file>...   merge shard files back into the full grid and print
//!                     the reports a monolithic run would print — byte-
//!                     identical output, enforced in CI with `cmp`
//!
//! query subcommand (aggregate accumulated run records):
//!   query <dir|file>...   read run-record files (or whole run directories)
//!   --scheme <tok>        keep one scheme (baseline, hybrid2, mempod, …)
//!   --workload <name>     keep one workload/scenario by name
//!   --ratio <1gb|2gb|4gb> keep one NM:FM ratio
//!   --since-record <n>    keep records with global id >= n
//!   --service <model>     keep one service model (unbounded, queued:8, …);
//!                         exact match, depth included
//!   (--out applies as above)
//!
//! serve subcommand (fault-tolerant cluster dispatcher, see `sim::cluster`):
//!   serve <grid>          dispatch a grid (scenario:<name|all>, eval:smoke,
//!                         eval:full, generated:<count>:<seed>:<name|all>
//!                         or specfile:<path>:<name|all>) as leased shard
//!                         slices to workers
//!   --shards <n>          how many slices to deal              [default: 4]
//!   --workers-expected <k> informational worker count for logs [default: 1]
//!   --deadline-secs <s>   per-lease deadline; also the no-progress
//!                         threshold for in-process takeover   [default: 60]
//!   --listen <addr>       listen address              [default: 127.0.0.1:0]
//!   --addr-file <file>    write the bound address here (ephemeral ports)
//!   (--ratio/--scale/--instrs/--seed/--threads/--batch/
//!   --machine-threads/--service/--runlog/--out
//!   apply as above; output is byte-identical to the monolithic run)
//!
//! worker subcommand (one cluster worker process):
//!   worker <host:port>    lease slices from a dispatcher until `done`
//!   --threads <n>         this worker's simulation threads  [default: #cpus]
//!   --fault-stall-secs <s> fault injection: stall before the first slice
//!   --fault-duplicate     fault injection: deliver every result twice
//! ```
//!
//! Exit status: 0 on success, 1 on runtime failure (I/O, inconsistent
//! shard files, corrupt run records), 2 on a usage error (unknown
//! flag/subcommand/id, malformed filter value, out-of-range sizing value).
//! Argument handling never panics. `--scale` is checked at parse time
//! against the values the scaled system accepts (powers of two in
//! 1..=2048), so a bad value is a usage error rather than a panic in the
//! worker threads.

use sim::experiments::{evalsuite_reports, main_matrix_timed, run_by_id, ALL_EXPERIMENTS};
use sim::shard::{self, ShardSpec};
use sim::{cluster, runlog, scenario, EvalConfig, GridId, NmRatio, ServiceModel};

/// One-screen usage summary printed alongside every usage error.
const USAGE: &str = "\
usage: reproduce [--exp <id>] [--scale N] [--instrs N] [--seed N] [--threads N]
                 [--batch N] [--machine-threads N] [--service MODEL] [--smoke]
                 [--shard K/N] [--runlog DIR] [--out FILE] [--list]
       reproduce scenario <name|all> [--spec FILE | --generate N]
                 [--ratio 1gb|2gb|4gb] [--scale N]
                 [--instrs N] [--seed N] [--threads N] [--batch N]
                 [--machine-threads N] [--service MODEL] [--shard K/N]
                 [--runlog DIR] [--out FILE] [--list]
       reproduce merge <file>... [--out FILE]
       reproduce query <dir|file>... [--scheme TOK] [--workload NAME]
                 [--ratio 1gb|2gb|4gb] [--service MODEL] [--since-record N]
                 [--out FILE]
       reproduce serve <scenario:<name|all>|eval:smoke|eval:full
                 |generated:<count>:<seed>:<name|all>
                 |specfile:<path>:<name|all>>
                 [--shards N] [--workers-expected K] [--deadline-secs S]
                 [--listen ADDR] [--addr-file FILE] [--ratio 1gb|2gb|4gb]
                 [--scale N] [--instrs N] [--seed N] [--threads N]
                 [--batch N] [--machine-threads N] [--service MODEL]
                 [--runlog DIR] [--out FILE]
       reproduce worker <host:port> [--threads N] [--fault-stall-secs S]
                 [--fault-duplicate]

run `reproduce --list` for experiment ids, `reproduce scenario --list`
for the scenario catalog; see the module docs for flag semantics.
MODEL is unbounded (the closed-form reference, default) or
queued[:depth] (bounded per-channel/per-bank service queues).";

/// A fully parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    /// The default experiment path (`--exp …`).
    Eval {
        exp: String,
        cfg: EvalConfig,
        smoke: bool,
        shard: Option<ShardSpec>,
        runlog: Option<String>,
        out: Option<String>,
        list: bool,
    },
    /// `scenario <name|all> …`.
    Scenario {
        selector: Option<String>,
        /// `--spec FILE`: compile the catalog from a `.scn` file.
        spec: Option<String>,
        /// `--generate N`: generate the catalog from `(N, cfg.seed)`.
        generate: Option<usize>,
        ratio: NmRatio,
        cfg: EvalConfig,
        shard: Option<ShardSpec>,
        runlog: Option<String>,
        out: Option<String>,
        list: bool,
    },
    /// `merge <file>… [--out FILE]`.
    Merge {
        files: Vec<String>,
        out: Option<String>,
    },
    /// `query <dir|file>… [filters] [--out FILE]`.
    Query {
        inputs: Vec<String>,
        query: runlog::Query,
        out: Option<String>,
    },
    /// `serve <grid> …` — the cluster dispatcher.
    Serve {
        sc: cluster::ServeConfig,
        out: Option<String>,
    },
    /// `worker <host:port> …` — one cluster worker.
    Worker { wc: cluster::WorkerConfig },
}

/// The value of flag `args[i]`, parsed, or a usage error naming the flag.
fn flag_value<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> Result<T, String> {
    args.get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?
        .parse()
        .map_err(|_| format!("{name} needs an integer value, got {:?}", args[i + 1]))
}

/// Largest accepted `--scale`: the scaled 64 MiB DRAM cache must hold at
/// least one 16-way XTA set of 2 KiB pages (`ScaledSystem::new`). Scales
/// must also be powers of two, or the scaled NM does not split evenly
/// across MemPod's pods.
const MAX_SCALE_DEN: u64 = 2048;

/// Consumes one of the sizing flags shared by every run subcommand
/// (`--scale/--instrs/--seed/--threads/--batch/--machine-threads/
/// --service`) at `args[i]`, returning the next index, or `None` if
/// `args[i]` is some other argument.
fn parse_sizing_flag(
    cfg: &mut EvalConfig,
    args: &[String],
    i: usize,
) -> Result<Option<usize>, String> {
    match args[i].as_str() {
        "--scale" => {
            cfg.scale_den = flag_value(args, i, "--scale")?;
            if !cfg.scale_den.is_power_of_two() || cfg.scale_den > MAX_SCALE_DEN {
                return Err(format!(
                    "--scale must be a power of two in 1..={MAX_SCALE_DEN} (beyond \
                     {MAX_SCALE_DEN} the DRAM cache shrinks below one XTA set), got {}",
                    cfg.scale_den
                ));
            }
        }
        "--instrs" => cfg.instrs_per_core = flag_value(args, i, "--instrs")?,
        "--seed" => cfg.seed = flag_value(args, i, "--seed")?,
        "--threads" => cfg.threads = flag_value(args, i, "--threads")?,
        "--batch" => {
            cfg.batch = flag_value(args, i, "--batch")?;
            if cfg.batch == 0 {
                return Err("--batch must be at least 1 (1 = per-op reference scheduling)".into());
            }
        }
        "--machine-threads" => {
            cfg.machine_threads = flag_value(args, i, "--machine-threads")?;
            if cfg.machine_threads == 0 {
                return Err(
                    "--machine-threads must be at least 1 (1 = single-threaded stepping)".into(),
                );
            }
        }
        "--service" => {
            let v = args.get(i + 1).ok_or("--service needs a value")?;
            cfg.service = ServiceModel::parse(v).ok_or_else(|| {
                format!("--service needs unbounded or queued[:depth] (depth >= 1), got {v:?}")
            })?;
        }
        _ => return Ok(None),
    }
    Ok(Some(i + 2))
}

/// Consumes a `--shard K/N`, `--runlog DIR` or `--out FILE` flag at
/// `args[i]`, shared by the two run subcommands.
fn parse_output_flag(
    shard: &mut Option<ShardSpec>,
    runlog_dir: &mut Option<String>,
    out: &mut Option<String>,
    args: &[String],
    i: usize,
) -> Result<Option<usize>, String> {
    match args[i].as_str() {
        "--shard" => {
            let v = args.get(i + 1).ok_or("--shard needs a value (K/N)")?;
            *shard = Some(ShardSpec::parse(v)?);
        }
        "--runlog" => {
            let v = args.get(i + 1).ok_or("--runlog needs a directory path")?;
            *runlog_dir = Some(v.clone());
        }
        "--out" => {
            let v = args.get(i + 1).ok_or("--out needs a file path")?;
            *out = Some(v.clone());
        }
        _ => return Ok(None),
    }
    Ok(Some(i + 2))
}

/// Parses `reproduce scenario …`; `args` excludes the leading token.
fn parse_scenario(args: &[String]) -> Result<Command, String> {
    let mut cfg = EvalConfig::default_eval();
    let mut ratio = NmRatio::OneGb;
    let mut selector: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut generate: Option<usize> = None;
    let mut sh = None;
    let mut rl = None;
    let mut out = None;
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        if let Some(next) = parse_sizing_flag(&mut cfg, args, i)? {
            i = next;
            continue;
        }
        if let Some(next) = parse_output_flag(&mut sh, &mut rl, &mut out, args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--ratio" => {
                let v = args.get(i + 1).ok_or("--ratio needs a value")?;
                ratio = shard::parse_ratio_token(v)?;
                i += 2;
            }
            "--spec" => {
                let v = args.get(i + 1).ok_or("--spec needs a .scn file path")?;
                spec = Some(v.clone());
                i += 2;
            }
            "--generate" => {
                let n: usize = flag_value(args, i, "--generate")?;
                if n == 0 {
                    return Err("--generate must be at least 1 scenario".to_owned());
                }
                generate = Some(n);
                i += 2;
            }
            "--list" => {
                list = true;
                i += 1;
            }
            name if !name.starts_with('-') && selector.is_none() => {
                selector = Some(name.to_owned());
                i += 1;
            }
            other => return Err(format!("unknown scenario argument {other:?}")),
        }
    }
    if spec.is_some() && generate.is_some() {
        return Err("--spec and --generate are mutually exclusive".to_owned());
    }
    if selector.is_none() && !list {
        return Err("scenario needs a selector (<name|all>) or --list".to_owned());
    }
    // Resolve the active catalog now so malformed `.scn` files and unknown
    // names are usage errors (exit 2), same as unknown experiment ids —
    // the run path never sees a bad selector. Spec-file errors carry
    // file:line:col positions from the compiler.
    let cat = load_catalog(&spec, generate, cfg.seed)?;
    if let Some(sel) = &selector {
        if scenario::select(&cat, sel).is_none() {
            let hint = cat
                .nearest(sel)
                .map(|near| format!(" (did you mean {near:?}?)"))
                .unwrap_or_default();
            return Err(format!(
                "unknown scenario {sel:?}{hint}; run `reproduce scenario --list` for the catalog"
            ));
        }
    }
    Ok(Command::Scenario {
        selector,
        spec,
        generate,
        ratio,
        cfg,
        shard: sh,
        runlog: rl,
        out,
        list,
    })
}

/// The catalog a `scenario` invocation runs against: compiled from a
/// `--spec` file, generated from `(--generate N, --seed)`, or a copy of
/// the built-ins.
fn load_catalog(
    spec: &Option<String>,
    generate: Option<usize>,
    seed: u64,
) -> Result<workloads::Catalog, String> {
    match (spec, generate) {
        (Some(path), _) => {
            workloads::Catalog::from_scn_file(std::path::Path::new(path)).map_err(|e| e.to_string())
        }
        (None, Some(n)) => Ok(workloads::Catalog::generate(n, seed)),
        (None, None) => Ok(workloads::scenarios::builtin().clone()),
    }
}

/// The value of flag `args[i]` as a positive, finite duration in seconds
/// (fractions allowed), or a usage error naming the flag.
fn flag_secs(args: &[String], i: usize, name: &str) -> Result<std::time::Duration, String> {
    let v = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value in seconds"))?;
    let secs: f64 = v
        .parse()
        .map_err(|_| format!("{name} needs a number of seconds, got {v:?}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{name} must be a positive number of seconds"));
    }
    Ok(std::time::Duration::from_secs_f64(secs))
}

/// Parses `reproduce serve …`; `args` excludes the leading token.
fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut cfg = EvalConfig::default_eval();
    let mut ratio = NmRatio::OneGb;
    let mut grid: Option<GridId> = None;
    let mut shards = 4usize;
    let mut workers_expected = 1usize;
    let mut deadline = std::time::Duration::from_secs(60);
    let mut listen = "127.0.0.1:0".to_owned();
    let mut addr_file = None;
    let mut rl = None;
    let mut out = None;
    let mut unused_shard = None;

    let mut i = 0;
    while i < args.len() {
        if let Some(next) = parse_sizing_flag(&mut cfg, args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--shards" => {
                shards = flag_value(args, i, "--shards")?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                i += 2;
            }
            "--workers-expected" => {
                workers_expected = flag_value(args, i, "--workers-expected")?;
                i += 2;
            }
            "--deadline-secs" => {
                deadline = flag_secs(args, i, "--deadline-secs")?;
                i += 2;
            }
            "--listen" => {
                listen = args
                    .get(i + 1)
                    .ok_or("--listen needs an address (host:port)")?
                    .clone();
                i += 2;
            }
            "--addr-file" => {
                addr_file = Some(
                    args.get(i + 1)
                        .ok_or("--addr-file needs a file path")?
                        .clone(),
                );
                i += 2;
            }
            "--ratio" => {
                let v = args.get(i + 1).ok_or("--ratio needs a value")?;
                ratio = shard::parse_ratio_token(v)?;
                i += 2;
            }
            _ => {
                if let Some(next) =
                    parse_output_flag(&mut unused_shard, &mut rl, &mut out, args, i)?
                {
                    if unused_shard.is_some() {
                        return Err("--shard does not apply to serve (use --shards N)".to_owned());
                    }
                    i = next;
                    continue;
                }
                match args[i].as_str() {
                    tok if !tok.starts_with('-') && grid.is_none() => {
                        grid = Some(cluster::parse_grid_token(tok)?);
                        i += 1;
                    }
                    other => return Err(format!("unknown serve argument {other:?}")),
                }
            }
        }
    }
    let grid = grid.ok_or(
        "serve needs a grid (scenario:<name|all>, eval:smoke, eval:full, \
         generated:<count>:<seed>:<name|all> or specfile:<path>:<name|all>)",
    )?;
    // Bad grids — unknown scenario names, unreadable or malformed spec
    // files — are usage errors (exit 2), same as the scenario
    // subcommand's own selector validation.
    shard::validate_grid(&grid)?;
    Ok(Command::Serve {
        sc: cluster::ServeConfig {
            grid,
            ratio,
            cfg,
            shards,
            workers_expected,
            deadline,
            listen,
            addr_file,
            runlog: rl,
        },
        out,
    })
}

/// Parses `reproduce worker …`; `args` excludes the leading token.
fn parse_worker(args: &[String]) -> Result<Command, String> {
    let mut addr: Option<String> = None;
    let mut threads = EvalConfig::default_eval().threads;
    let mut fault_stall = None;
    let mut fault_duplicate = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = flag_value(args, i, "--threads")?;
                i += 2;
            }
            "--fault-stall-secs" => {
                fault_stall = Some(flag_secs(args, i, "--fault-stall-secs")?);
                i += 2;
            }
            "--fault-duplicate" => {
                fault_duplicate = true;
                i += 1;
            }
            tok if !tok.starts_with('-') && addr.is_none() => {
                addr = Some(tok.to_owned());
                i += 1;
            }
            other => return Err(format!("unknown worker argument {other:?}")),
        }
    }
    let addr = addr.ok_or("worker needs a dispatcher address (host:port)")?;
    if !addr.contains(':') {
        return Err(format!("worker address {addr:?} is not host:port"));
    }
    Ok(Command::Worker {
        wc: cluster::WorkerConfig {
            addr,
            threads,
            fault_stall,
            fault_duplicate,
        },
    })
}

/// Parses `reproduce query …`; `args` excludes the leading token.
fn parse_query(args: &[String]) -> Result<Command, String> {
    let mut inputs = Vec::new();
    let mut query = runlog::Query::default();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scheme" => {
                let v = args.get(i + 1).ok_or("--scheme needs a scheme token")?;
                query.scheme = Some(shard::parse_kind_token(v)?);
                i += 2;
            }
            "--workload" => {
                let v = args.get(i + 1).ok_or("--workload needs a name")?;
                query.workload = Some(v.clone());
                i += 2;
            }
            "--ratio" => {
                let v = args.get(i + 1).ok_or("--ratio needs a value")?;
                query.ratio = Some(shard::parse_ratio_token(v)?);
                i += 2;
            }
            "--since-record" => {
                query.since_record = Some(flag_value(args, i, "--since-record")?);
                i += 2;
            }
            "--service" => {
                let v = args.get(i + 1).ok_or("--service needs a value")?;
                query.service = Some(ServiceModel::parse(v).ok_or_else(|| {
                    format!("--service needs unbounded or queued[:depth], got {v:?}")
                })?);
                i += 2;
            }
            "--out" => {
                let v = args.get(i + 1).ok_or("--out needs a file path")?;
                out = Some(v.clone());
                i += 2;
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown query argument {flag:?}"));
            }
            input => {
                inputs.push(input.to_owned());
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        return Err("query needs at least one run directory or record file".to_owned());
    }
    Ok(Command::Query { inputs, query, out })
}

/// Parses `reproduce merge …`; `args` excludes the leading token.
fn parse_merge(args: &[String]) -> Result<Command, String> {
    let mut files = Vec::new();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                let v = args.get(i + 1).ok_or("--out needs a file path")?;
                out = Some(v.clone());
                i += 2;
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown merge argument {flag:?}"));
            }
            file => {
                files.push(file.to_owned());
                i += 1;
            }
        }
    }
    if files.is_empty() {
        return Err("merge needs at least one shard file".to_owned());
    }
    Ok(Command::Merge { files, out })
}

/// Parses the default experiment path (no subcommand).
fn parse_eval(args: &[String]) -> Result<Command, String> {
    let mut exp = "evalsuite".to_owned();
    let mut cfg = EvalConfig::default_eval();
    let mut smoke = false;
    let mut sh = None;
    let mut rl = None;
    let mut out = None;
    let mut list = false;

    let mut i = 0;
    while i < args.len() {
        if let Some(next) = parse_sizing_flag(&mut cfg, args, i)? {
            i = next;
            continue;
        }
        if let Some(next) = parse_output_flag(&mut sh, &mut rl, &mut out, args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).ok_or("--exp needs a value")?.clone();
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--list" => {
                list = true;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (subcommands: scenario, merge)"
                ))
            }
        }
    }
    if !list && !ALL_EXPERIMENTS.contains(&exp.as_str()) {
        return Err(format!(
            "unknown experiment {exp:?}; run `reproduce --list` for ids"
        ));
    }
    if sh.is_some() && exp != "evalsuite" {
        return Err(format!(
            "--shard only applies to the evalsuite matrix (or the scenario grid), not {exp:?}"
        ));
    }
    if rl.is_some() && exp != "evalsuite" {
        return Err(format!(
            "--runlog only applies to the evalsuite matrix (or the scenario grid), not {exp:?}"
        ));
    }
    Ok(Command::Eval {
        exp,
        cfg,
        smoke,
        shard: sh,
        runlog: rl,
        out,
        list,
    })
}

/// Parses a complete command line (without the program name).
fn parse_command(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("scenario") => parse_scenario(&args[1..]),
        Some("merge") => parse_merge(&args[1..]),
        Some("query") => parse_query(&args[1..]),
        Some("serve") => parse_serve(&args[1..]),
        Some("worker") => parse_worker(&args[1..]),
        _ => parse_eval(args),
    }
}

/// Latched once stdout's reader has gone away (EPIPE). Subsequent stdout
/// writes become silent no-ops instead of repeating the error — and,
/// crucially, instead of exiting on the spot: a subcommand that still has
/// durable side effects queued after its stdout emit (`--runlog` record
/// appends follow the report emit in every run subcommand) must complete
/// them before the process exits 0. The old `process::exit(0)` here
/// skipped those appends whenever `reproduce … --runlog d | head` closed
/// the pipe early, silently losing the run's records.
static STDOUT_PIPE_CLOSED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Writes `text` to `--out` (or stdout), mapping I/O failures to an error
/// string — except a broken pipe on stdout, which is a reader's choice,
/// not a failure (`reproduce query … | head` must never panic like a bare
/// `print!` would): it latches [`STDOUT_PIPE_CLOSED`] and reports success,
/// so the command finishes its remaining work and exits 0 normally.
fn emit(out: &Option<String>, text: &str) -> Result<(), String> {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}")),
        None => {
            if STDOUT_PIPE_CLOSED.load(Ordering::Relaxed) {
                return Ok(());
            }
            let mut stdout = std::io::stdout().lock();
            let r = stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush());
            match r {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                    STDOUT_PIPE_CLOSED.store(true, Ordering::Relaxed);
                    Ok(())
                }
                Err(e) => Err(format!("cannot write to stdout: {e}")),
            }
        }
    }
}

/// The run-record `source` tag of a grid.
fn grid_source(grid: &GridId) -> String {
    match grid {
        GridId::Scenario { selector } => format!("scenario:{selector}"),
        GridId::Eval { smoke } => {
            format!("evalsuite:{}", if *smoke { "smoke" } else { "full" })
        }
        GridId::SpecFile { path, selector } => format!("specfile:{path}:{selector}"),
        GridId::Generated {
            count,
            seed,
            selector,
        } => format!("generated:{count}:{seed}:{selector}"),
    }
}

/// Appends one run record per cell to `--runlog DIR`, if requested.
fn record_cells_to(
    runlog_dir: &Option<String>,
    source: &str,
    ratio: NmRatio,
    cfg: &EvalConfig,
    cells: &[(shard::CellKey, sim::RunResult, f64)],
) -> Result<(), String> {
    let Some(dir) = runlog_dir else {
        return Ok(());
    };
    let mut log = runlog::RunLog::create(std::path::Path::new(dir), source)?;
    runlog::record_cells(&mut log, source, ratio, cfg, cells)?;
    eprintln!(
        "recorded {} run record(s) to {}",
        cells.len(),
        log.path().display()
    );
    Ok(())
}

/// Appends one run record per matrix slot to `--runlog DIR`, if requested.
fn record_matrix_to(
    runlog_dir: &Option<String>,
    source: &str,
    m: &sim::Matrix,
    secs: &[f64],
    cfg: &EvalConfig,
) -> Result<(), String> {
    let Some(dir) = runlog_dir else {
        return Ok(());
    };
    let mut log = runlog::RunLog::create(std::path::Path::new(dir), source)?;
    runlog::record_matrix(&mut log, source, m, secs, cfg)?;
    eprintln!(
        "recorded {} run record(s) to {}",
        secs.len(),
        log.path().display()
    );
    Ok(())
}

/// Runs one shard of `grid` and emits the interchange file.
fn run_shard_cmd(
    grid: &GridId,
    ratio: NmRatio,
    cfg: &EvalConfig,
    sh: ShardSpec,
    runlog_dir: &Option<String>,
    out: &Option<String>,
) -> Result<(), String> {
    eprintln!(
        "running shard {sh} at 1/{} scale, {} instrs/core, NM {}, {} threads",
        cfg.scale_den,
        cfg.instrs_per_core,
        shard::ratio_token(ratio),
        cfg.threads
    );
    let started = std::time::Instant::now();
    let run = shard::run_shard(grid, ratio, cfg, sh)?;
    emit(out, &run.encoded)?;
    record_cells_to(runlog_dir, &grid_source(grid), ratio, cfg, &run.cells)?;
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Runs `reproduce query <inputs…>`: reads run-record files (or whole run
/// directories), filters and renders the aggregate reports.
fn run_query_cmd(
    inputs: &[String],
    query: &runlog::Query,
    out: &Option<String>,
) -> Result<(), String> {
    let mut files: Vec<(String, String)> = Vec::new();
    for input in inputs {
        let meta = std::fs::metadata(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
        if meta.is_dir() {
            files.extend(runlog::dir_inputs(std::path::Path::new(input))?);
        } else {
            let contents = std::fs::read_to_string(input)
                .map_err(|e| format!("cannot read {input:?}: {e}"))?;
            files.push((input.clone(), contents));
        }
    }
    let store = runlog::read_store(&files)?;
    let mut text = String::new();
    for report in runlog::run_query(&store, query) {
        text.push_str(&report.render());
        text.push('\n');
    }
    emit(out, &text)
}

/// Runs `reproduce merge <files…>`.
fn run_merge(files: &[String], out: &Option<String>) -> Result<(), String> {
    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let contents =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        inputs.push((path.clone(), contents));
    }
    let merged = shard::merge(&inputs)?;
    eprintln!(
        "merged {} shard file(s): {:?} at 1/{} scale, {} instrs/core, NM {}",
        inputs.len(),
        merged.grid,
        merged.scale_den,
        merged.instrs_per_core,
        shard::ratio_token(merged.ratio)
    );
    let mut text = String::new();
    for report in shard::reports(&merged.grid, &merged.matrix) {
        text.push_str(&report.render());
        text.push('\n');
    }
    emit(out, &text)
}

/// Runs `reproduce scenario …` after parsing.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    selector: &Option<String>,
    spec: &Option<String>,
    generate: Option<usize>,
    ratio: NmRatio,
    cfg: &EvalConfig,
    sh: Option<ShardSpec>,
    runlog_dir: &Option<String>,
    out: &Option<String>,
    list: bool,
) -> Result<(), String> {
    let cat = load_catalog(spec, generate, cfg.seed)?;
    if list {
        return emit(
            out,
            &format!("{}\n", scenario::catalog_report(&cat).render()),
        );
    }
    let selector = selector.as_deref().expect("parse guarantees a selector");
    let scens = scenario::select(&cat, selector).expect("parse validated the selector");
    let grid = match (spec, generate) {
        (Some(path), _) => GridId::SpecFile {
            path: path.clone(),
            selector: selector.to_owned(),
        },
        (None, Some(count)) => GridId::Generated {
            count,
            seed: cfg.seed,
            selector: selector.to_owned(),
        },
        (None, None) => GridId::Scenario {
            selector: selector.to_owned(),
        },
    };
    if let Some(sh) = sh {
        return run_shard_cmd(&grid, ratio, cfg, sh, runlog_dir, out);
    }
    eprintln!(
        "running {} scenario(s) at 1/{} scale, {} instrs/core, NM {}, {} threads",
        scens.len(),
        cfg.scale_den,
        cfg.instrs_per_core,
        ratio.label(),
        cfg.threads
    );
    let started = std::time::Instant::now();
    let (m, secs) = scenario::run_grid_timed(&scens, ratio, cfg);
    let mut text = String::new();
    for report in scenario::grid_reports(&m) {
        text.push_str(&report.render());
        text.push('\n');
    }
    emit(out, &text)?;
    record_matrix_to(runlog_dir, &grid_source(&grid), &m, &secs, cfg)?;
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Runs the default experiment path after parsing.
fn run_eval(
    exp: &str,
    cfg: &EvalConfig,
    smoke: bool,
    sh: Option<ShardSpec>,
    runlog_dir: &Option<String>,
    out: &Option<String>,
    list: bool,
) -> Result<(), String> {
    if list {
        let mut text = String::new();
        for id in ALL_EXPERIMENTS {
            text.push_str(id);
            text.push('\n');
        }
        return emit(out, &text);
    }
    let grid = GridId::Eval { smoke };
    if let Some(sh) = sh {
        return run_shard_cmd(&grid, NmRatio::OneGb, cfg, sh, runlog_dir, out);
    }
    eprintln!(
        "running {exp} at 1/{} scale, {} instrs/core, {} workloads, {} threads",
        cfg.scale_den,
        cfg.instrs_per_core,
        if smoke { 3 } else { 30 },
        cfg.threads
    );
    let started = std::time::Instant::now();
    let mut text = String::new();
    // `--runlog` implies the timed evalsuite matrix path (parse rejects it
    // for any other experiment); the reports are identical to run_by_id's
    // — both call evalsuite_reports on the same deterministic matrix.
    if runlog_dir.is_some() {
        let (m, secs) = main_matrix_timed(NmRatio::OneGb, cfg, smoke);
        for report in evalsuite_reports(&m) {
            text.push_str(&report.render());
            text.push('\n');
        }
        emit(out, &text)?;
        record_matrix_to(runlog_dir, &grid_source(&grid), &m, &secs, cfg)?;
    } else {
        for report in run_by_id(exp, cfg, smoke) {
            text.push_str(&report.render());
            text.push('\n');
        }
        emit(out, &text)?;
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_command(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match &cmd {
        Command::Eval {
            exp,
            cfg,
            smoke,
            shard,
            runlog,
            out,
            list,
        } => run_eval(exp, cfg, *smoke, *shard, runlog, out, *list),
        Command::Scenario {
            selector,
            spec,
            generate,
            ratio,
            cfg,
            shard,
            runlog,
            out,
            list,
        } => run_scenario(
            selector, spec, *generate, *ratio, cfg, *shard, runlog, out, *list,
        ),
        Command::Merge { files, out } => run_merge(files, out),
        Command::Query { inputs, query, out } => run_query_cmd(inputs, query, out),
        Command::Serve { sc, out } => cluster::serve(sc).and_then(|text| emit(out, &text)),
        Command::Worker { wc } => cluster::worker(wc),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn default_is_evalsuite() {
        match parse(&[]).unwrap() {
            Command::Eval { exp, shard, .. } => {
                assert_eq!(exp, "evalsuite");
                assert!(shard.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_panics() {
        for args in [
            &["--bogus"][..],
            &["--exp", "fig12", "--frobnicate"][..],
            &["scenario", "all", "--bogus"][..],
            &["merge", "a.tsv", "--bogus"][..],
            &["query", "rundir", "--bogus"][..],
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.contains("unknown"), "{args:?} -> {e}");
        }
    }

    #[test]
    fn missing_and_malformed_flag_values_are_errors() {
        assert!(parse(&["--scale"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--instrs", "many"])
            .unwrap_err()
            .contains("--instrs"));
        assert!(parse(&["scenario", "all", "--ratio"])
            .unwrap_err()
            .contains("--ratio"));
        assert!(parse(&["scenario", "all", "--ratio", "8gb"])
            .unwrap_err()
            .contains("8gb"));
        assert!(parse(&["--shard"]).unwrap_err().contains("--shard"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn scale_outside_the_scaled_system_range_is_a_usage_error() {
        for bad in ["0", "3", "4096"] {
            for args in [
                &["--scale", bad][..],
                &["scenario", "tile-shrink", "--scale", bad],
            ] {
                let e = parse(args).unwrap_err();
                assert!(e.contains("2048"), "{args:?} -> {e}");
            }
        }
        for good in ["1", "2048"] {
            match parse(&["--scale", good]).unwrap() {
                Command::Eval { cfg, .. } => assert_eq!(cfg.scale_den.to_string(), good),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(parse(&["--exp", "fig99"]).unwrap_err().contains("fig99"));
    }

    #[test]
    fn shard_specs_validate() {
        for bad in ["0/4", "5/4", "x/y", "3", "1/0"] {
            assert!(parse(&["--shard", bad]).is_err(), "{bad:?}");
        }
        match parse(&["--exp", "evalsuite", "--shard", "2/4"]).unwrap() {
            Command::Eval { shard, .. } => {
                assert_eq!(shard, Some(ShardSpec { index: 2, count: 4 }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_rejected_for_non_matrix_experiments() {
        let e = parse(&["--exp", "fig12", "--shard", "1/2"]).unwrap_err();
        assert!(e.contains("evalsuite"), "{e}");
    }

    #[test]
    fn runlog_parses_on_grid_paths_and_rejects_elsewhere() {
        match parse(&["--exp", "evalsuite", "--runlog", "rundir"]).unwrap() {
            Command::Eval { runlog, .. } => assert_eq!(runlog.as_deref(), Some("rundir")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["scenario", "all", "--runlog", "rundir", "--shard", "1/2"]).unwrap() {
            Command::Scenario { runlog, shard, .. } => {
                assert_eq!(runlog.as_deref(), Some("rundir"));
                assert!(shard.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Usage errors (exit 2): non-grid experiment, missing value.
        let e = parse(&["--exp", "fig12", "--runlog", "rundir"]).unwrap_err();
        assert!(e.contains("evalsuite"), "{e}");
        assert!(parse(&["--runlog"]).unwrap_err().contains("--runlog"));
    }

    #[test]
    fn query_flags_parse_and_bad_values_are_usage_errors() {
        match parse(&[
            "query",
            "rundir",
            "extra.runlog.tsv",
            "--scheme",
            "hybrid2",
            "--workload",
            "stream-chase",
            "--ratio",
            "2gb",
            "--since-record",
            "56",
            "--service",
            "queued:8",
            "--out",
            "q.txt",
        ])
        .unwrap()
        {
            Command::Query { inputs, query, out } => {
                assert_eq!(inputs, vec!["rundir", "extra.runlog.tsv"]);
                assert_eq!(query.scheme, Some(sim::SchemeKind::Hybrid2));
                assert_eq!(query.workload.as_deref(), Some("stream-chase"));
                assert_eq!(query.ratio, Some(NmRatio::TwoGb));
                assert_eq!(query.since_record, Some(56));
                assert_eq!(query.service, Some(ServiceModel::Queued { depth: 8 }));
                assert_eq!(out.as_deref(), Some("q.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Absent service filter means "any model".
        match parse(&["query", "rundir"]).unwrap() {
            Command::Query { query, .. } => assert_eq!(query.service, None),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["query"]).unwrap_err().contains("at least one"));
        let e = parse(&["query", "rundir", "--scheme", "quantum-cache"]).unwrap_err();
        assert!(e.contains("quantum-cache"), "{e}");
        let e = parse(&["query", "rundir", "--service", "bogus"]).unwrap_err();
        assert!(e.contains("--service"), "{e}");
        let e = parse(&["query", "rundir", "--ratio", "8gb"]).unwrap_err();
        assert!(e.contains("8gb"), "{e}");
        let e = parse(&["query", "rundir", "--since-record", "many"]).unwrap_err();
        assert!(e.contains("--since-record"), "{e}");
        assert!(parse(&["query", "rundir", "--scheme"])
            .unwrap_err()
            .contains("--scheme"));
    }

    #[test]
    fn emit_surfaces_io_errors_with_the_path() {
        let out = Some("/nonexistent-dir-for-sure/x.txt".to_owned());
        let e = emit(&out, "text").unwrap_err();
        assert!(e.contains("/nonexistent-dir-for-sure/x.txt"), "{e}");
    }

    #[test]
    fn scenario_needs_selector_unless_listing() {
        assert!(parse(&["scenario"]).is_err());
        assert!(parse(&["scenario", "--list"]).is_ok());
        // Unknown names are usage errors (exit 2), like unknown --exp ids.
        let e = parse(&["scenario", "not-a-scenario"]).unwrap_err();
        assert!(e.contains("unknown scenario"), "{e}");
        match parse(&[
            "scenario", "quad-mix", "--ratio", "4gb", "--shard", "1/2", "--out", "x.tsv",
        ])
        .unwrap()
        {
            Command::Scenario {
                selector,
                ratio,
                shard,
                out,
                ..
            } => {
                assert_eq!(selector.as_deref(), Some("quad-mix"));
                assert_eq!(ratio, NmRatio::FourGb);
                assert_eq!(shard, Some(ShardSpec { index: 1, count: 2 }));
                assert_eq!(out.as_deref(), Some("x.tsv"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_needs_files() {
        assert!(parse(&["merge"]).unwrap_err().contains("at least one"));
        match parse(&["merge", "a.tsv", "b.tsv", "--out", "m.txt"]).unwrap() {
            Command::Merge { files, out } => {
                assert_eq!(files, vec!["a.tsv", "b.tsv"]);
                assert_eq!(out.as_deref(), Some("m.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_flag_parses_and_validates() {
        match parse(&["--batch", "64"]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.batch, 64),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["scenario", "all", "--batch", "1"]).unwrap() {
            Command::Scenario { cfg, .. } => assert_eq!(cfg.batch, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Default when the flag is absent.
        match parse(&[]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.batch, sim::DEFAULT_BATCH),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["--batch"]).unwrap_err().contains("--batch"));
        assert!(parse(&["--batch", "many"]).unwrap_err().contains("--batch"));
        assert!(parse(&["--batch", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["scenario", "all", "--batch", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn machine_threads_flag_parses_and_validates() {
        match parse(&["--machine-threads", "4"]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.machine_threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["scenario", "all", "--machine-threads", "2"]).unwrap() {
            Command::Scenario { cfg, .. } => assert_eq!(cfg.machine_threads, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Default when the flag is absent: single-threaded stepping.
        match parse(&[]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.machine_threads, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["--machine-threads"])
            .unwrap_err()
            .contains("--machine-threads"));
        assert!(parse(&["--machine-threads", "many"])
            .unwrap_err()
            .contains("--machine-threads"));
        assert!(parse(&["--machine-threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["scenario", "all", "--machine-threads", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn service_flag_parses_and_validates() {
        match parse(&["--service", "queued:4"]).unwrap() {
            Command::Eval { cfg, .. } => {
                assert_eq!(cfg.service, ServiceModel::Queued { depth: 4 })
            }
            other => panic!("unexpected {other:?}"),
        }
        // Bare `queued` takes the default depth.
        match parse(&["scenario", "all", "--service", "queued"]).unwrap() {
            Command::Scenario { cfg, .. } => {
                assert_eq!(
                    cfg.service,
                    ServiceModel::Queued {
                        depth: sim::DEFAULT_QUEUE_DEPTH
                    }
                )
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default when the flag is absent: the closed-form reference.
        match parse(&[]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.service, ServiceModel::Unbounded),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["--service", "unbounded"]).unwrap() {
            Command::Eval { cfg, .. } => assert_eq!(cfg.service, ServiceModel::Unbounded),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values are usage errors (exit 2), never panics.
        assert!(parse(&["--service"]).unwrap_err().contains("--service"));
        assert!(parse(&["--service", "warp"])
            .unwrap_err()
            .contains("--service"));
        assert!(parse(&["--service", "queued:0"])
            .unwrap_err()
            .contains("depth"));
        assert!(parse(&["scenario", "all", "--service", "queued:"])
            .unwrap_err()
            .contains("--service"));
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        match parse(&[
            "serve",
            "scenario:stream-chase",
            "--shards",
            "4",
            "--workers-expected",
            "3",
            "--deadline-secs",
            "0.5",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            "addr.txt",
            "--ratio",
            "2gb",
            "--scale",
            "1024",
            "--runlog",
            "rundir",
            "--out",
            "cluster.txt",
        ])
        .unwrap()
        {
            Command::Serve { sc, out } => {
                assert_eq!(
                    sc.grid,
                    GridId::Scenario {
                        selector: "stream-chase".to_owned()
                    }
                );
                assert_eq!(sc.shards, 4);
                assert_eq!(sc.workers_expected, 3);
                assert_eq!(sc.deadline, std::time::Duration::from_millis(500));
                assert_eq!(sc.listen, "127.0.0.1:0");
                assert_eq!(sc.addr_file.as_deref(), Some("addr.txt"));
                assert_eq!(sc.ratio, NmRatio::TwoGb);
                assert_eq!(sc.cfg.scale_den, 1024);
                assert_eq!(sc.runlog.as_deref(), Some("rundir"));
                assert_eq!(out.as_deref(), Some("cluster.txt"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Usage errors (exit 2), never panics.
        assert!(parse(&["serve"]).unwrap_err().contains("grid"));
        let e = parse(&["serve", "grid:x"]).unwrap_err();
        assert!(e.contains("grid:x"), "{e}");
        let e = parse(&["serve", "scenario:not-a-scenario"]).unwrap_err();
        assert!(e.contains("unknown scenario"), "{e}");
        let e = parse(&["serve", "eval:smoke", "--shards", "0"]).unwrap_err();
        assert!(e.contains("--shards"), "{e}");
        let e = parse(&["serve", "eval:smoke", "--deadline-secs", "-1"]).unwrap_err();
        assert!(e.contains("--deadline-secs"), "{e}");
        let e = parse(&["serve", "eval:smoke", "--deadline-secs", "soon"]).unwrap_err();
        assert!(e.contains("soon"), "{e}");
        let e = parse(&["serve", "eval:smoke", "--shard", "1/2"]).unwrap_err();
        assert!(e.contains("--shards N"), "{e}");
        assert!(parse(&["serve", "eval:smoke", "--bogus"])
            .unwrap_err()
            .contains("unknown serve argument"));
    }

    #[test]
    fn worker_flags_parse_and_validate() {
        match parse(&[
            "worker",
            "127.0.0.1:9999",
            "--threads",
            "2",
            "--fault-stall-secs",
            "1.5",
            "--fault-duplicate",
        ])
        .unwrap()
        {
            Command::Worker { wc } => {
                assert_eq!(wc.addr, "127.0.0.1:9999");
                assert_eq!(wc.threads, 2);
                assert_eq!(wc.fault_stall, Some(std::time::Duration::from_millis(1500)));
                assert!(wc.fault_duplicate);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["worker", "localhost:7"]).unwrap() {
            Command::Worker { wc } => {
                assert!(wc.fault_stall.is_none());
                assert!(!wc.fault_duplicate);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Usage errors (exit 2), never panics.
        assert!(parse(&["worker"]).unwrap_err().contains("address"));
        let e = parse(&["worker", "no-port"]).unwrap_err();
        assert!(e.contains("host:port"), "{e}");
        assert!(parse(&["worker", "h:1", "--bogus"])
            .unwrap_err()
            .contains("unknown worker argument"));
        assert!(parse(&["worker", "h:1", "--fault-stall-secs"])
            .unwrap_err()
            .contains("--fault-stall-secs"));
    }

    #[test]
    fn sizing_flags_apply_everywhere() {
        match parse(&[
            "--scale",
            "512",
            "--instrs",
            "1000",
            "--seed",
            "9",
            "--threads",
            "2",
        ])
        .unwrap()
        {
            Command::Eval { cfg, .. } => {
                assert_eq!(cfg.scale_den, 512);
                assert_eq!(cfg.instrs_per_core, 1000);
                assert_eq!(cfg.seed, 9);
                assert_eq!(cfg.threads, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

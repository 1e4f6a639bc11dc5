//! End-to-end, layer-attributed benchmark of the sched-anomalies
//! pipelines (see README.md for the workloads and metrics).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --record      # print the expected digests
//! ```
//!
//! `--trace 0` times the workload's real pipeline for `S` seconds with
//! tracing off and prints the end-to-end metrics; `--trace 1` replays the
//! same inputs with spans around every layer call and prints the
//! per-layer metrics. Either way the last stdout line is one JSON object
//! `{"correct","attempted","failed","metrics"}`; progress and the trace
//! summary go to stderr, and the spans to `out/` inside this package.

mod crossval;
mod digest;
mod monitor;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use csa_experiments::{
    load_margin_artifact, margin_artifact_path, save_margin_artifact, warm_cached_tables,
    warm_interpolated_tables, warm_margin_tables, write_atomic,
};
use trace::Tracer;

/// End-to-end metrics (`--trace 0`), in output order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units. A layer
/// a workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_frac", "ratio"),
    ("margins.tables_s", "s"),
    ("margins.interp_s", "s"),
    ("margin_cache.save_ms", "ms"),
    ("margin_cache.load_ms", "ms"),
    ("inputs.self_s", "s"),
    ("benchgen.draws", "count"),
    ("benchgen.self_s", "s"),
    ("checker.logical_checks", "count"),
    ("checker.computed_checks", "count"),
    ("checker.hit_ratio", "ratio"),
    ("checker.ns_per_logical_check", "ns"),
    ("rta.computed_checks", "count"),
    ("rta.ns_per_check", "ns"),
    ("search.self_s", "s"),
    ("uq.self_s", "s"),
    ("search.max_instance_s", "s"),
    ("search.max_instance_share", "ratio"),
    ("search.max_instance_checks", "count"),
    ("search.max_instance_computed", "count"),
    ("search.max_instance_n", "count"),
    ("search.max_instance_index", "count"),
    ("portfolio.self_s", "s"),
    ("portfolio.truncated", "count"),
    ("portfolio.stage_wins.opa", "count"),
    ("portfolio.stage_wins.seeds", "count"),
    ("portfolio.stage_wins.slack-restart", "count"),
    ("portfolio.stage_wins.input-restart", "count"),
    ("orchestrate.overhead_s", "s"),
    ("monitor.parse_us", "us"),
    ("monitor.encode_us", "us"),
    ("monitor.submit_self_s", "s"),
    ("monitor.computed_over_logical", "ratio"),
    ("monitor.memo_tables", "count"),
    ("monitor.events", "count"),
    ("crossval.scan_s", "s"),
    ("crossval.unknowns", "count"),
    ("crossval.self_s", "s"),
    ("crossval.scan_max_instance_s", "s"),
    ("crossval.scan_max_instance_index", "count"),
    ("crossval.scan_max_instance_checks", "count"),
    ("crossval.scan_max_instance_computed", "count"),
    ("crossval.max_instance_s", "s"),
    ("crossval.max_instance_n", "count"),
    ("crossval.max_instance_index", "count"),
    ("crossval.max_instance_checks", "count"),
    ("crossval.max_instance_computed", "count"),
    ("sim.jobs", "count"),
    ("sim.self_s", "s"),
    ("sim.ns_per_job", "ns"),
];

/// Cold set-ups run in child processes per measured run, besides the
/// run's own; `setup_s` is the median of all of them. The margin caches
/// live in process-wide statics, so only a fresh process sets up cold.
const SETUP_PROBES: usize = 4;

/// Iterations of the clock probe's dependent chain.
const CLOCK_CHAIN: u64 = 400_000;
/// Cycles one iteration of the chain takes: a 1-cycle rotate, a 1-cycle
/// xor and a 3-cycle 64-bit multiply, each waiting on the one before.
const CHAIN_CYCLES: f64 = 5.0;
/// Clock probes taken after each repetition and before each set-up.
const CLOCK_PROBES: usize = 4;
/// Core clock the end-to-end times are scaled to.
const NOMINAL_GHZ: f64 = 3.0;

const USAGE: &str = "usage: perfbench --workload table1-budget|monitor-repeat|crossval-unknowns \
--seed N --seconds S --trace 0|1  (or --workload NAME --record)";

/// Named metric values collected by one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        let known = PER_LAYER.iter().chain(END_TO_END).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.0.insert(name, value);
    }

    fn json(&self, declared: &[(&str, &str)]) -> String {
        let fields: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// One timed repetition of a workload's pipeline.
pub struct Rep {
    pub wall_s: f64,
    /// The repetition's wall time cut into consecutive pieces that do the
    /// same work in every repetition (the same sweep, instance or
    /// request); they add up to `wall_s`.
    pub pieces_ns: Vec<u64>,
    /// Digest of every output the repetition produced.
    pub digest: u64,
    /// The outputs match the digests recorded for these inputs.
    pub ok: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Per-request latencies; empty for the batch workloads, where the
    /// request is the whole sweep.
    pub latencies_ns: Vec<u64>,
}

/// The traced replay of a workload.
pub struct Traced {
    /// Wall time of the replayed pipeline alone (no layer replays).
    pub pipeline_s: f64,
    /// Digest of the replay's outputs; must equal the untraced one.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A benchmark workload: inputs made from the seed, a timed repetition
/// of the real pipeline, and a traced replay of it.
pub trait Workload {
    type Inputs;
    const NAME: &'static str;
    fn inputs(seed: u64) -> Self::Inputs;
    fn rep(inputs: &Self::Inputs, seed: u64) -> Rep;
    fn trace(inputs: &Self::Inputs, seed: u64, tracer: &Tracer) -> Traced;
    /// `(key, digest)` lines of the expected-digest file for this
    /// workload, computed on the current code.
    fn record(inputs: &Self::Inputs) -> Vec<(String, u64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        probe: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must be non-negative".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--setup-probe" => args.probe = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match args.workload.as_str() {
        table1::Table1::NAME => run::<table1::Table1>(&args),
        monitor::Monitor::NAME => run::<monitor::Monitor>(&args),
        crossval::Crossval::NAME => run::<crossval::Crossval>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Scratch space of this package (`out/`); the margin artifacts and the
/// span files live here.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Points the margin artifact at a fresh, empty directory so the next
/// set-up is the cold build, never a stale artifact.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the artifact directory");
    std::env::set_var("CSA_MARGIN_CACHE_DIR", &dir);
    dir
}

/// The cold set-up: margin tables built from an empty artifact
/// directory, then the workload's inputs.
fn cold_setup<W: Workload>(seed: u64) -> (f64, W::Inputs) {
    // csa-lint: allow(D002) benchmark timing; never feeds an output
    let t0 = Instant::now();
    warm_cached_tables(1);
    let inputs = W::inputs(seed);
    (t0.elapsed().as_secs_f64(), inputs)
}

/// The same set-up, decomposed into traced layer calls, plus a warm
/// reload of the artifact it wrote.
fn traced_setup<W: Workload>(seed: u64, tracer: &Tracer) -> W::Inputs {
    let tables = tracer.span("margins.tables", || warm_margin_tables(1));
    let interp = tracer.span("margins.interp", || warm_interpolated_tables(1));
    let path = margin_artifact_path();
    tracer
        .span("margin_cache.save", || {
            save_margin_artifact(&path, tables, interp)
        })
        .expect("write the margin artifact");
    let loaded = tracer.span("margin_cache.load", || load_margin_artifact(&path));
    let (t, i) = loaded.expect("reload the margin artifact just written");
    assert_eq!((t.len(), i.len()), (tables.len(), interp.len()));
    tracer.span("inputs", || W::inputs(seed))
}

/// Runs one cold set-up in a child process and returns its time.
fn probe_setup(args: &Args, k: usize) -> f64 {
    let dir = out_dir().join(format!("cache-{}-probe{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the artifact directory");
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .env("CSA_MARGIN_CACHE_DIR", &dir)
        .output()
        .expect("run the set-up probe");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "set-up probe failed: {}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the set-up probe prints its time")
}

/// Raises `best` to the fastest core clock, in GHz, seen over
/// [`CLOCK_PROBES`] runs of a dependent rotate-xor-multiply chain. The
/// chain is the benchmark's own code, so it takes the same cycles
/// whatever the repository's code does.
fn probe_clock(best: &mut f64) {
    for _ in 0..CLOCK_PROBES {
        // csa-lint: allow(D002) benchmark timing; never feeds an output
        let t0 = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for _ in 0..black_box(CLOCK_CHAIN) {
            x = (x ^ x.rotate_left(17)).wrapping_mul(0x5851_f42d_4c95_7f2d);
        }
        black_box(x);
        let ghz = CHAIN_CYCLES * CLOCK_CHAIN as f64 / t0.elapsed().as_nanos() as f64;
        *best = best.max(ghz);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Element-wise minimum over the repetitions of the series `series`
/// picks out (all of one length).
fn fastest_each(reps: &[Rep], series: impl Fn(&Rep) -> &Vec<u64>) -> Vec<u64> {
    let mut fastest = series(&reps[0]).clone();
    for r in &reps[1..] {
        for (f, &v) in fastest.iter_mut().zip(series(r)) {
            *f = (*f).min(v);
        }
    }
    fastest
}

/// Nearest-rank percentile of `p` in `[0, 1]`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &str) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    );
}

fn run<W: Workload>(args: &Args) {
    if args.probe {
        let (secs, _) = cold_setup::<W>(args.seed);
        println!("{secs}");
        return;
    }
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    let cache = fresh_cache_dir("main");
    if args.record {
        let (_, inputs) = cold_setup::<W>(args.seed);
        for (key, value) in W::record(&inputs) {
            println!("{key} {value:016x}");
        }
    } else if args.trace {
        trace_run::<W>(args);
    } else {
        bench_run::<W>(args);
    }
    let _ = std::fs::remove_dir_all(cache);
}

fn bench_run<W: Workload>(args: &Args) {
    let mut ghz = 0.0;
    let mut setups = Vec::new();
    for k in 0..SETUP_PROBES {
        probe_clock(&mut ghz);
        setups.push(probe_setup(args, k));
    }
    probe_clock(&mut ghz);
    let (secs, inputs) = cold_setup::<W>(args.seed);
    setups.push(secs);

    // Repeat while one more repetition, as long as the last, still fits
    // in `--seconds`, so a run never overshoots its measuring time.
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    let mut rss_mb = 0.0;
    while reps.last().is_none_or(|r| spent + r.wall_s <= args.seconds) {
        let rep = W::rep(&inputs, args.seed);
        probe_clock(&mut ghz);
        spent += rep.wall_s;
        if reps.is_empty() {
            // Set-up plus one repetition: later ones reuse the same
            // footprint, and the latencies kept for the percentiles
            // would grow it with the repetition count.
            rss_mb = peak_rss_mb();
        }
        eprintln!(
            "{}: rep {} wall {:.3} s digest {:016x}{}",
            W::NAME,
            reps.len() + 1,
            rep.wall_s,
            rep.digest,
            if rep.ok { "" } else { " MISMATCH" }
        );
        reps.push(rep);
    }
    let shape = |r: &Rep| (r.pieces_ns.len(), r.latencies_ns.len());
    let correct = reps
        .iter()
        .all(|r| r.ok && r.digest == reps[0].digest && shape(r) == shape(&reps[0]));
    let attempted = reps.iter().map(|r| r.attempted).sum();
    let failed = reps.iter().map(|r| r.failed).sum();

    // Other tenants of the machine slow the program in bursts and never
    // speed it up, so each piece's fastest time over the repetitions is
    // what its code costs. Summing them keeps a burst that slowed part of
    // every repetition out of the total, which the fastest whole
    // repetition does not.
    let fastest_pieces = fastest_each(&reps, |r| &r.pieces_ns);
    let wall_s = fastest_pieces.iter().sum::<u64>() as f64 * 1e-9;
    // The host also moves the core clock for minutes at a time, longer
    // than a run, so every time is scaled from the fastest clock the run
    // saw to the nominal one: a time in cycles, read in seconds.
    let scale = ghz / NOMINAL_GHZ;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups) * scale);
    m.put("wall_s", wall_s * scale);
    let requests = reps[0].latencies_ns.len();
    if requests == 0 {
        // Batch workloads: one request is one whole sweep.
        m.put("req_per_s", 1.0 / (wall_s * scale));
        m.put("req_p50_us", wall_s * scale * 1e6);
        m.put("req_p99_us", wall_s * scale * 1e6);
    } else {
        // Request k does the same work in every pass (same line, same
        // engine history), so its fastest latency over the passes is its
        // cost; the percentiles are taken over those.
        let mut fastest = fastest_each(&reps, |r| &r.latencies_ns);
        fastest.sort_unstable();
        let us = |p: f64| percentile(&fastest, p) as f64 * 1e-3 * scale;
        m.put("req_per_s", requests as f64 / (wall_s * scale));
        m.put("req_p50_us", us(0.5));
        m.put("req_p99_us", us(0.99));
    }
    m.put("peak_rss_mb", rss_mb);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    eprintln!(
        "{}: {} reps (fastest {:.3} s, median {:.3} s, sum of fastest pieces {:.3} s) \
         at {ghz:.3} GHz, setup samples {:?}",
        W::NAME,
        reps.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        wall_s,
        setups,
    );
    print_result(correct, attempted, failed, &m.json(END_TO_END));
}

fn trace_run<W: Workload>(args: &Args) {
    let tracer = Tracer::new();
    let inputs = traced_setup::<W>(args.seed, &tracer);
    let traced = W::trace(&inputs, args.seed, &tracer);
    let (bd, spans) = tracer.finish();
    // The untraced reference for the equivalence check and the tracing
    // overhead (the margin caches are warm by now; set-up is not timed).
    let rep = W::rep(&inputs, args.seed);

    let equivalent = traced.digest == rep.digest;
    let correct = rep.ok && equivalent;
    let attempted = traced.attempted + rep.attempted;
    let failed = traced.failed + rep.failed;

    let mut m = traced.metrics;
    m.put("trace.wall_s", bd.wall_s);
    m.put("trace.layers_s", bd.layers_s());
    m.put("trace.untraced_s", bd.untraced_s);
    m.put("trace.overhead_s", traced.pipeline_s - rep.wall_s);
    m.put("fail_frac", failed as f64 / attempted.max(1) as f64);
    m.put("margins.tables_s", bd.self_s("margins.tables"));
    m.put("margins.interp_s", bd.self_s("margins.interp"));
    m.put("margin_cache.save_ms", bd.self_s("margin_cache.save") * 1e3);
    m.put("margin_cache.load_ms", bd.self_s("margin_cache.load") * 1e3);
    m.put("inputs.self_s", bd.self_s("inputs"));
    m.put("benchgen.draws", bd.calls("benchgen") as f64);
    m.put("benchgen.self_s", bd.self_s("benchgen"));
    m.put("search.self_s", bd.self_s("search"));
    m.put("uq.self_s", bd.self_s("uq"));
    m.put("portfolio.self_s", bd.self_s("portfolio"));
    m.put("orchestrate.overhead_s", bd.self_s("orchestrate"));
    m.put("monitor.submit_self_s", bd.self_s("monitor.submit"));
    m.put("sim.self_s", bd.self_s("sim"));
    let crossval_self: f64 = bd
        .layers
        .iter()
        .filter(|(name, _)| name.starts_with("crossval."))
        .map(|(_, l)| l.0)
        .sum();
    m.put("crossval.self_s", crossval_self);

    eprintln!(
        "{}: traced wall {:.3} s = layers {:.3} s + untraced {:.3} s",
        W::NAME,
        bd.wall_s,
        bd.layers_s(),
        bd.untraced_s
    );
    for (name, (secs, calls)) in &bd.layers {
        eprintln!("  {name:<20} self {secs:>10.6} s  {calls:>8} spans");
    }
    eprintln!(
        "{}: replayed pipeline {:.3} s vs untraced {:.3} s; replay digest {:016x} {} untraced {:016x}",
        W::NAME,
        traced.pipeline_s,
        rep.wall_s,
        traced.digest,
        if equivalent { "==" } else { "!=" },
        rep.digest
    );
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", W::NAME, args.seed));
    if let Err(e) = write_atomic(&path, &spans) {
        eprintln!("{}: could not write {}: {e}", W::NAME, path.display());
    }
    print_result(correct, attempted, failed, &m.json(PER_LAYER));
}

//! `monitor-repeat`: 20 000 admission requests over a pool of 1 024
//! generated configurations (twice the engine's default 512-table memo
//! bank), each configuration equally often in an order shuffled by the
//! benchmark seed, through `request_line` ->
//! `parse_request` -> `MonitorEngine::submit`/`flush` -> `response_line`,
//! as the `monitor` binary runs them, minus the pipe. One client, closed
//! loop, one worker thread.

use std::time::Instant;

use csa_core::{analyze, portfolio_on_checker, PortfolioStage, StabilityChecker};
use csa_experiments::{
    generate_benchmark, instance_seed, BenchmarkConfig, PeriodModel, SearchConfig, SearchMode,
};
use csa_monitor::jsonl::{event_line, parse_request, request_line, response_line};
use csa_monitor::{generate_stream, MonitorConfig, MonitorEngine, Payload, Request, StreamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::digest;
use crate::trace::Tracer;
use crate::{Metrics, Rep, Traced, Workload};

const POOL: usize = 1024;
const POOL_SEED: u64 = 7;
const REQUESTS: usize = 20_000;
const BUDGET: u64 = 50_000;
/// Benchmark seeds whose full response-stream digests `--record` writes.
const RECORDED_SEEDS: u64 = 100;

pub struct Monitor;

pub struct Inputs {
    pool: Vec<Request>,
    /// Request lines, ids 1..=REQUESTS in order.
    lines: Vec<String>,
    /// Pool index of each request.
    draws: Vec<usize>,
}

fn config() -> MonitorConfig {
    MonitorConfig {
        search: SearchConfig::new(SearchMode::Portfolio, BUDGET),
        ..MonitorConfig::default()
    }
}

/// Everything one pass over the request lines produced.
struct Pass {
    wall_s: f64,
    /// The pass cut at each line's arrival: engine start-up, then one
    /// piece per line (with the final flush in the last).
    pieces_ns: Vec<u64>,
    /// Response and event lines in emission order.
    out: Vec<String>,
    latencies_ns: Vec<u64>,
    engine: MonitorEngine,
    /// Summed span durations of parse, submit and encode.
    parse_ns: u64,
    submit_ns: u64,
    encode_ns: u64,
}

fn in_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    match tracer {
        Some(t) => t.timed(name, f),
        None => (f(), 0),
    }
}

/// One pass through a fresh engine. A request's latency runs from just
/// before its line is parsed until its response line is encoded.
fn pass(inputs: &Inputs, tracer: Option<&Tracer>) -> Pass {
    // csa-lint: allow(D002) benchmark timing; never feeds an output
    let origin = Instant::now();
    let mut received_ns = vec![0u64; inputs.lines.len()];
    let mut p = Pass {
        wall_s: 0.0,
        pieces_ns: Vec::with_capacity(inputs.lines.len() + 1),
        out: Vec::with_capacity(inputs.lines.len() + 1024),
        latencies_ns: Vec::with_capacity(inputs.lines.len()),
        engine: MonitorEngine::new(config()),
        parse_ns: 0,
        submit_ns: 0,
        encode_ns: 0,
    };
    let emit = |responses: Vec<csa_monitor::Response>, p: &mut Pass, received: &[u64]| {
        let ((), ns) = in_span(tracer, "monitor.encode", || {
            for r in &responses {
                p.out.push(response_line(r));
                let done = origin.elapsed().as_nanos() as u64;
                p.latencies_ns.push(done - received[(r.id - 1) as usize]);
                for e in &r.events {
                    p.out.push(event_line(e));
                }
            }
        });
        p.encode_ns += ns;
    };
    let mut cut_ns = 0;
    for line in &inputs.lines {
        let t_in = origin.elapsed().as_nanos() as u64;
        p.pieces_ns.push(t_in - cut_ns);
        cut_ns = t_in;
        let (request, ns) = in_span(tracer, "monitor.parse", || parse_request(line));
        p.parse_ns += ns;
        let request = request.expect("generated request lines parse");
        received_ns[(request.id - 1) as usize] = t_in;
        let (responses, ns) = in_span(tracer, "monitor.submit", || p.engine.submit(request));
        p.submit_ns += ns;
        emit(responses, &mut p, &received_ns);
    }
    let (responses, ns) = in_span(tracer, "monitor.submit", || p.engine.flush());
    p.submit_ns += ns;
    emit(responses, &mut p, &received_ns);
    let end_ns = origin.elapsed().as_nanos() as u64;
    p.pieces_ns.push(end_ns - cut_ns);
    p.wall_s = end_ns as f64 * 1e-9;
    p
}

/// Digest of the memo-invariant part of one response line (verdict
/// through anomalies): a function of the configuration alone.
fn assessment_digest(line: &str) -> Option<u64> {
    let start = line.find("\"verdict\"")?;
    let end = line.find(",\"lifecycle\"")?;
    Some(digest::of_lines([&line[start..end]]))
}

fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// Checks a pass: every response's assessment must be the same wherever
/// its configuration recurs, the per-configuration table must match the
/// recorded pool digest, and, for a recorded seed, the whole stream must
/// match too. Returns `(ok, stream digest, pool digest)`.
fn check(inputs: &Inputs, seed: u64, p: &Pass) -> (bool, u64, Option<u64>) {
    let stream = digest::of_lines(&p.out);
    let table = pool_table(inputs, &p.out);
    let mut ok = p.latencies_ns.len() == inputs.lines.len();
    let pool = match &table {
        Ok(t) => Some(digest::of_lines(t.iter().map(|d| format!("{d:016x}")))),
        Err(e) => {
            eprintln!("monitor-repeat: {e}");
            ok = false;
            None
        }
    };
    ok &= pool.is_some_and(|d| digest::matches("monitor-repeat.pool", d));
    let key = format!("monitor-repeat.stream.{seed}");
    if digest::expected(&key).is_some() {
        ok &= digest::matches(&key, stream);
    }
    (ok, stream, pool)
}

/// Per pool configuration, the assessment digest its responses share.
fn pool_table(inputs: &Inputs, out: &[String]) -> Result<Vec<u64>, String> {
    let mut table: Vec<Option<u64>> = vec![None; POOL];
    for line in out.iter().filter(|l| l.starts_with("{\"id\":")) {
        let id = response_id(line).ok_or_else(|| format!("no id in {line}"))?;
        let j = *inputs
            .draws
            .get(id.wrapping_sub(1))
            .ok_or_else(|| format!("unknown id {id}"))?;
        let d = assessment_digest(line).ok_or_else(|| format!("malformed response {line}"))?;
        match table[j] {
            Some(prev) if prev != d => {
                return Err(format!("configuration {j} answered differently: {line}"))
            }
            _ => table[j] = Some(d),
        }
    }
    table
        .into_iter()
        .enumerate()
        .map(|(j, d)| d.ok_or_else(|| format!("configuration {j} was never drawn")))
        .collect()
}

fn make_inputs(seed: u64) -> Inputs {
    let pool = generate_stream(&StreamConfig {
        count: POOL,
        seed: POOL_SEED,
        task_counts: vec![4, 8, 12, 16],
        profile: PeriodModel::Continuous,
    });
    // Every configuration equally often (19 or 20 times), in an order
    // shuffled by the seed: each request is still a uniform draw from the
    // pool, but the seed changes only the order, not how often an
    // expensive configuration comes up.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws: Vec<usize> = (0..REQUESTS).map(|k| k % POOL).collect();
    for i in (1..draws.len()).rev() {
        draws.swap(i, rng.gen_range(0..=i));
    }
    let lines = draws
        .iter()
        .enumerate()
        .map(|(k, &j)| {
            request_line(&Request {
                id: k as u64 + 1,
                payload: pool[j].payload.clone(),
            })
        })
        .collect();
    Inputs { pool, lines, draws }
}

impl Workload for Monitor {
    type Inputs = Inputs;
    const NAME: &'static str = "monitor-repeat";

    fn inputs(seed: u64) -> Inputs {
        make_inputs(seed)
    }

    fn rep(inputs: &Inputs, seed: u64) -> Rep {
        let p = pass(inputs, None);
        let (ok, digest, _) = check(inputs, seed, &p);
        Rep {
            wall_s: p.wall_s,
            pieces_ns: p.pieces_ns,
            digest,
            ok,
            attempted: inputs.lines.len() as u64,
            failed: p.engine.quarantined(),
            latencies_ns: p.latencies_ns,
        }
    }

    /// The same pass with parse, submit and encode in spans, then a
    /// replay of each pool configuration through `generate_benchmark`,
    /// the budgeted portfolio on a caller-owned checker, and `analyze`
    /// on the assignment it finds (replay-derived layer numbers).
    fn trace(inputs: &Inputs, seed: u64, tracer: &Tracer) -> Traced {
        let p = pass(inputs, Some(tracer));
        let (_, digest, _) = check(inputs, seed, &p);
        let requests = inputs.lines.len() as f64;
        let logical = p.engine.logical_checks() as f64;
        let computed = p.engine.computed_checks() as f64;
        let mut m = Metrics::default();
        m.put("monitor.parse_us", p.parse_ns as f64 * 1e-3 / requests);
        m.put("monitor.encode_us", p.encode_ns as f64 * 1e-3 / requests);
        m.put("monitor.computed_over_logical", computed / logical);
        m.put("monitor.memo_tables", p.engine.memo_tables() as f64);
        m.put("monitor.events", p.engine.events_emitted() as f64);
        m.put("checker.logical_checks", logical);
        m.put("checker.computed_checks", computed);
        m.put("checker.hit_ratio", 1.0 - computed / logical);
        m.put("checker.ns_per_logical_check", p.submit_ns as f64 / logical);
        m.put("rta.computed_checks", computed);

        let mut wins = [0u64; 4];
        let (mut truncated, mut rta_checks, mut rta_ns) = (0u64, 0u64, 0u64);
        for request in &inputs.pool {
            let Payload::Generated {
                profile,
                seed,
                n,
                index,
            } = request.payload
            else {
                unreachable!("the pool holds generated payloads only");
            };
            let tasks = tracer.span("benchgen", || {
                let cfg = BenchmarkConfig::with_model(n, profile);
                generate_benchmark(
                    &cfg,
                    &mut StdRng::seed_from_u64(instance_seed(seed, n, index)),
                )
            });
            let out = tracer.span("portfolio", || {
                portfolio_on_checker(&mut StabilityChecker::new(&tasks), BUDGET)
            });
            truncated += u64::from(out.truncated());
            if let Some(stage) = out.winner {
                wins[stage_slot(stage)] += 1;
            }
            if let Some(pa) = &out.assignment {
                let (verdicts, ns) = tracer.timed("rta", || analyze(&tasks, pa));
                rta_checks += verdicts.len() as u64;
                rta_ns += ns;
            }
        }
        put_portfolio(&mut m, truncated, wins);
        m.put("rta.ns_per_check", rta_ns as f64 / rta_checks as f64);
        Traced {
            pipeline_s: p.wall_s,
            digest,
            attempted: inputs.lines.len() as u64,
            failed: p.engine.quarantined(),
            metrics: m,
        }
    }

    fn record(inputs: &Inputs) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let p = pass(inputs, None);
        match pool_table(inputs, &p.out) {
            Ok(t) => out.push((
                "monitor-repeat.pool".to_string(),
                digest::of_lines(t.iter().map(|d| format!("{d:016x}"))),
            )),
            Err(e) => eprintln!("monitor-repeat: {e}"),
        }
        for seed in 0..RECORDED_SEEDS {
            let p = pass(&make_inputs(seed), None);
            eprintln!("monitor-repeat: recorded seed {seed}");
            out.push((
                format!("monitor-repeat.stream.{seed}"),
                digest::of_lines(&p.out),
            ));
        }
        out
    }
}

/// Index of a portfolio stage in the `stage_wins` counters.
pub fn stage_slot(stage: PortfolioStage) -> usize {
    match stage {
        PortfolioStage::Opa => 0,
        PortfolioStage::Seeds => 1,
        PortfolioStage::SlackRestart => 2,
        PortfolioStage::InputRestart => 3,
    }
}

pub fn put_portfolio(m: &mut Metrics, truncated: u64, wins: [u64; 4]) {
    m.put("portfolio.truncated", truncated as f64);
    m.put("portfolio.stage_wins.opa", wins[0] as f64);
    m.put("portfolio.stage_wins.seeds", wins[1] as f64);
    m.put("portfolio.stage_wins.slack-restart", wins[2] as f64);
    m.put("portfolio.stage_wins.input-restart", wins[3] as f64);
}

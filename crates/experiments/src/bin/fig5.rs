//! Regenerates the paper's Fig. 5 (assignment runtime vs. task count).
//! Pass `--quick` for a reduced run, `--profile NAME` to select the
//! benchmark period model, `--n LIST` (e.g. `--n 4,8,12`) to override
//! the task-count sweep, `--search NAME` to pick the assignment search
//! being timed (`backtracking` default, `portfolio`, `opa`), and
//! `--budget N` to cap the logical checks each instance may spend
//! (bounds the n ≥ 16 exponential tail on the continuous profiles).
//! `--threads N` only affects the margin-table warm-up: the timing
//! loop itself is single-threaded so workers cannot perturb the
//! measured runtimes.

use csa_experiments::cli::{Args, PROFILE, QUICK, SCALE, SWEEP, TASK_COUNTS};
use csa_experiments::{
    csv_file_name, empirical_order, run_fig5, warm_cached_tables, write_csv, Fig5Config,
};

fn main() -> std::io::Result<()> {
    let args = Args::parse("fig5", &[SCALE, SWEEP]);
    let profile = args.get(&PROFILE).unwrap_or_default();
    let search = args.search();
    let mut config = if args.get(&QUICK).is_some() {
        Fig5Config::quick()
    } else {
        Fig5Config::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = args.get(&TASK_COUNTS) {
        config.task_counts = counts;
    }
    eprintln!(
        "fig5: {} benchmarks per n over n = {:?} (profile {}, search {}, budget {})",
        config.benchmarks,
        config.task_counts,
        profile,
        search.mode,
        if search.is_budgeted() {
            search.budget.to_string()
        } else {
            "unbounded".to_string()
        }
    );
    warm_cached_tables(args.threads());
    let points = run_fig5(&config);
    println!(
        "{:>4} {:>16} {:>16} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "n",
        "search(us)",
        "unsafe_quad(us)",
        "checks",
        "hits",
        "uq checks",
        "backtracks",
        "truncated"
    );
    for p in &points {
        println!(
            "{:>4} {:>16.2} {:>16.2} {:>12.1} {:>10.2} {:>12.1} {:>10.3} {:>9.1}%",
            p.n,
            p.search_secs * 1e6,
            p.unsafe_quadratic_secs * 1e6,
            p.search_checks,
            p.search_cache_hits,
            p.unsafe_quadratic_checks,
            p.backtracks,
            p.truncated_rate * 100.0
        );
    }
    let search_order = empirical_order(
        &points
            .iter()
            .map(|p| (p.n as f64, p.search_checks))
            .collect::<Vec<_>>(),
    );
    let uq_order = empirical_order(
        &points
            .iter()
            .map(|p| (p.n as f64, p.unsafe_quadratic_checks))
            .collect::<Vec<_>>(),
    );
    println!(
        "empirical check-count order: {} n^{search_order:.2}, unsafe n^{uq_order:.2}",
        search.mode
    );
    let path = write_csv(
        &csv_file_name("fig5", profile, &search),
        "n,search_us,unsafe_quadratic_us,search_checks,search_cache_hits,unsafe_checks,backtracks,truncated_rate",
        points.iter().map(|p| {
            format!(
                "{},{:.3},{:.3},{:.2},{:.2},{:.2},{:.4},{:.4}",
                p.n,
                p.search_secs * 1e6,
                p.unsafe_quadratic_secs * 1e6,
                p.search_checks,
                p.search_cache_hits,
                p.unsafe_quadratic_checks,
                p.backtracks,
                p.truncated_rate
            )
        }),
    )?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

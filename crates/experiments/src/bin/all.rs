//! Runs every experiment in sequence (Table I, Figs. 2/4/5, census).
//! Pass `--quick` for reduced scales everywhere, `--threads N` to bound
//! the worker count (default: available parallelism; results are
//! identical at any setting), `--n LIST` to override the task-count
//! sweeps, `--profile NAME` to select the benchmark period model, and
//! `--search NAME` / `--budget N` to select and budget the assignment
//! search, for the benchmark-driven experiments (Table I, Fig. 5,
//! census; Figs. 2/4 sweep plants directly and have no benchmark
//! distribution).

use csa_experiments::cli::{Args, PROFILE, QUICK, SCALE, SWEEP, TASK_COUNTS};
use csa_experiments::{
    format_census, format_table1, run_census, run_fig2_with_threads, run_fig4, run_fig5,
    run_table1, warm_cached_tables, CensusConfig, Fig2Config, Fig4Config, Fig5Config, Table1Config,
};

fn main() {
    let args = Args::parse("all", &[SCALE, SWEEP]);
    let quick = args.get(&QUICK).is_some();
    let threads = args.threads();
    let profile = args.get(&PROFILE).unwrap_or_default();
    let search = args.search();
    let task_counts = args.get(&TASK_COUNTS);
    eprintln!(
        "running all experiments ({} scale, profile {}, search {}, {} worker threads)",
        if quick { "quick" } else { "paper" },
        profile,
        search.mode,
        threads
    );
    warm_cached_tables(threads);

    let fig4 = match run_fig4(&if quick {
        Fig4Config::quick()
    } else {
        Fig4Config::paper()
    }) {
        Ok(curves) => curves,
        Err(e) => {
            eprintln!("all: fig4: {e}");
            std::process::exit(1);
        }
    };
    println!("== Fig. 4: stability curves ==");
    for c in &fig4 {
        println!(
            "  h = {:.0} ms: b = {:.3} ms, a = {:.3}",
            c.period * 1e3,
            c.fit.b * 1e3,
            c.fit.a
        );
    }

    let fig2 = run_fig2_with_threads(
        &if quick {
            Fig2Config::quick()
        } else {
            Fig2Config::paper()
        },
        threads,
    );
    println!("== Fig. 2: cost vs. period ==");
    for c in &fig2 {
        println!(
            "  {}: {} local maxima, increasing trend {}, range {:.1e}",
            c.plant,
            c.non_monotone_points(),
            c.has_increasing_trend(),
            c.dynamic_range()
        );
    }

    let mut t1_cfg = if quick {
        Table1Config::quick()
    } else {
        Table1Config::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = &task_counts {
        t1_cfg.task_counts = counts.clone();
    }
    let (t1, _) = run_table1(&t1_cfg, threads);
    println!("== Table I ==");
    println!("{}", format_table1(&t1));

    let mut fig5_cfg = if quick {
        Fig5Config::quick()
    } else {
        Fig5Config::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = &task_counts {
        fig5_cfg.task_counts = counts.clone();
    }
    let fig5 = run_fig5(&fig5_cfg);
    println!("== Fig. 5: runtime ==");
    for p in &fig5 {
        println!(
            "  n = {:>2}: {} {:.1} us, unsafe quadratic {:.1} us",
            p.n,
            search.mode,
            p.search_secs * 1e6,
            p.unsafe_quadratic_secs * 1e6
        );
    }

    let mut census_cfg = if quick {
        CensusConfig::quick()
    } else {
        CensusConfig::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = &task_counts {
        census_cfg.task_counts = counts.clone();
    }
    let (census, _) = run_census(&census_cfg, threads);
    println!("== Census ==");
    println!("{}", format_census(&census));
}

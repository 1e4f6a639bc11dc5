//! Regenerates the paper's Fig. 2 (cost vs. sampling period). Pass
//! `--quick` for a reduced sweep and `--threads N` to bound the worker
//! count (the curves are identical at any thread count).

use csa_experiments::cli::{Args, QUICK, SCALE};
use csa_experiments::{run_fig2_with_threads, write_csv, Fig2Config};

fn main() -> std::io::Result<()> {
    let args = Args::parse("fig2", &[SCALE]);
    let config = if args.get(&QUICK).is_some() {
        Fig2Config::quick()
    } else {
        Fig2Config::paper()
    };
    let threads = args.threads();
    eprintln!(
        "fig2: sweeping h in [{}, {}] s with {} points ({} worker threads)",
        config.h_min, config.h_max, config.points, threads
    );
    let curves = run_fig2_with_threads(&config, threads);
    for c in &curves {
        println!(
            "{}: {} local maxima, increasing trend: {}, dynamic range: {:.2e}",
            c.plant,
            c.non_monotone_points(),
            c.has_increasing_trend(),
            c.dynamic_range()
        );
        let path = write_csv(
            &format!("fig2_{}.csv", c.plant),
            "period_s,cost",
            c.samples.iter().map(|(h, j)| format!("{h:.6},{j:.6e}")),
        )?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

//! Regenerates the paper's Fig. 4 (stability curves + linear bounds).
//! Pass `--quick` for a reduced run.

use csa_experiments::cli::{Args, QUICK};
use csa_experiments::{run_fig4, write_csv, Fig4Config};

fn main() -> std::io::Result<()> {
    let args = Args::parse("fig4", &[&[&QUICK]]);
    let config = if args.get(&QUICK).is_some() {
        Fig4Config::quick()
    } else {
        Fig4Config::paper()
    };
    let curves = match run_fig4(&config) {
        Ok(curves) => curves,
        Err(e) => {
            eprintln!("fig4: {e}");
            std::process::exit(1);
        }
    };
    for c in &curves {
        println!(
            "h = {:.0} ms: delay margin b = {:.3} ms, slope a = {:.3}",
            c.period * 1e3,
            c.fit.b * 1e3,
            c.fit.a
        );
        let path = write_csv(
            &format!("fig4_h{:.0}ms.csv", c.period * 1e3),
            "latency_s,jitter_margin_s,linear_bound_s",
            c.curve.points().iter().map(|p| {
                format!(
                    "{:.7},{:.7},{:.7}",
                    p.latency,
                    p.jitter_margin,
                    c.fit.max_jitter(p.latency)
                )
            }),
        )?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

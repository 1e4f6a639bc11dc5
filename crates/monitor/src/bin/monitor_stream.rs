//! Seeded request-stream generator: prints the deterministic JSONL
//! request stream that `monitor` consumes.
//!
//! ```text
//! monitor_stream [--count N] [--seed N] [--profile NAME] [--n LIST]
//! ```
//!
//! The stream addresses instances exactly like the census sweep
//! (`instance_seed(seed, n, index)` with per-`n` indices), so piping it
//! into `monitor` replays the same benchmark instances a batch sweep at
//! the same coordinates would assess.

use csa_experiments::cli::{Args, Flag, PROFILE, TASK_COUNTS};
use csa_monitor::jsonl::request_line;
use csa_monitor::{generate_stream, StreamConfig};

const COUNT: Flag<usize> = Flag::count("--count");
const SEED: Flag<u64> = Flag::count("--seed");

fn main() {
    let args = Args::parse(
        "monitor_stream",
        &[&[&COUNT, &SEED, &PROFILE, &TASK_COUNTS]],
    );
    let defaults = StreamConfig::default();
    let config = StreamConfig {
        count: args.get(&COUNT).unwrap_or(defaults.count),
        seed: args.get(&SEED).unwrap_or(defaults.seed),
        task_counts: args.get(&TASK_COUNTS).unwrap_or(defaults.task_counts),
        profile: args.get(&PROFILE).unwrap_or_default(),
    };
    for request in generate_stream(&config) {
        println!("{}", request_line(&request));
    }
}

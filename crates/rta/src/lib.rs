//! Exact fixed-priority response-time analysis.
//!
//! This crate implements the scheduling half of the DATE 2017 anomalies
//! paper's system model (§II–III):
//!
//! * the periodic task model with execution times in `[c_b, c_w]` and
//!   implicit deadlines ([`Task`]);
//! * the exact worst-case response time of Joseph & Pandya
//!   ([`wcrt`], Eq. 3);
//! * the exact best-case response time of Redell & Sanfridson
//!   ([`bcrt_from`], Eq. 4);
//! * the latency/jitter pair of Eq. 2 ([`ResponseBounds`]);
//! * UUniFast utilization sampling for the experiments ([`uunifast`]).
//!
//! All analysis runs on exact integer [`Ticks`] — the fixed points are
//! computed without floating-point ceilings, so anomaly detection in
//! `csa-core` never chases rounding ghosts (DESIGN.md §4; the
//! zero-allocation [`RtaScratch`] hot path is DESIGN.md §7).
//!
//! # Example
//!
//! ```
//! use csa_rta::{response_bounds, Task, TaskId, Ticks};
//!
//! # fn main() -> Result<(), csa_rta::InvalidTask> {
//! let hp = [Task::new(TaskId::new(0), Ticks::from_millis(1), Ticks::from_millis(2), Ticks::from_millis(10))?];
//! let tau = Task::new(TaskId::new(1), Ticks::from_millis(3), Ticks::from_millis(4), Ticks::from_millis(25))?;
//! let rb = response_bounds(&tau, &hp).unwrap();
//! println!("L = {}, J = {}", rb.latency(), rb.jitter());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod analysis;
mod generate;
mod scratch;
mod task;
mod time;

pub use analysis::{bcrt_from, response_bounds, wcrt, wcrt_with_limit, ResponseBounds};
pub use generate::uunifast;
pub use scratch::RtaScratch;
pub use task::{hyperperiod, utilization, InvalidTask, Task, TaskId, MAX_TASKS};
pub use time::{Ticks, TICKS_PER_SECOND};

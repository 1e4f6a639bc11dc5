//! Small CSV/report helpers shared by the experiment binaries.

use crate::artifact::write_atomic;
use std::path::{Path, PathBuf};

/// Default output directory for experiment artifacts (CSV files),
/// relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// Writes a CSV file under [`RESULTS_DIR`], creating the directory if
/// needed. Returns the full path.
///
/// The write is atomic ([`write_atomic`]): an interrupted run can never
/// leave a half-written CSV that looks like a complete result.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(
    file_name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<PathBuf> {
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = String::with_capacity(256);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(&row);
        content.push('\n');
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

/// Builds the CSV file name for a benchmark-driven sweep: the base name,
/// a `_{profile}` suffix off the legacy grid-snapped default, and a
/// `_{search}[_budgetN]` suffix off the default unbudgeted
/// backtracking — so runs under different configurations never
/// overwrite each other's results.
pub fn csv_file_name(
    base: &str,
    profile: crate::PeriodModel,
    search: &crate::SearchConfig,
) -> String {
    let mut name = base.to_string();
    if profile != crate::PeriodModel::GridSnapped {
        name.push('_');
        name.push_str(profile.name());
    }
    if search.mode != crate::SearchMode::Backtracking || search.is_budgeted() {
        name.push('_');
        name.push_str(search.mode.name());
        if search.is_budgeted() {
            name.push_str(&format!("_budget{}", search.budget));
        }
    }
    name.push_str(".csv");
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_names_encode_profile_and_search() {
        use crate::{PeriodModel, SearchConfig, SearchMode};
        let default = SearchConfig::default();
        assert_eq!(
            csv_file_name("fig5", PeriodModel::GridSnapped, &default),
            "fig5.csv"
        );
        assert_eq!(
            csv_file_name("fig5", PeriodModel::Continuous, &default),
            "fig5_continuous.csv"
        );
        assert_eq!(
            csv_file_name(
                "fig5",
                PeriodModel::Continuous,
                &SearchConfig::new(SearchMode::Portfolio, 50_000)
            ),
            "fig5_continuous_portfolio_budget50000.csv"
        );
        assert_eq!(
            csv_file_name(
                "table1",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Opa, u64::MAX)
            ),
            "table1_opa.csv"
        );
        assert_eq!(
            csv_file_name(
                "census",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Backtracking, 1_000)
            ),
            "census_backtracking_budget1000.csv"
        );
    }

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_report_roundtrip.csv",
            "x,y",
            ["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n3,4\n");
        std::fs::remove_file(path).unwrap();
    }
}

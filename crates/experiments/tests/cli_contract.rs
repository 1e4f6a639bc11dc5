//! The six experiment binaries refuse a malformed command line with
//! exit 2, `<bin>: <reason>` and a usage line, before writing anything;
//! the four that take `--n` refuse a task count above the 64-task limit,
//! and none takes a sweep clock or witness cap (`--instance-timeout`,
//! `--reservoir`).

use std::process::Command;

#[test]
fn malformed_command_lines_exit_2_before_any_work() {
    let cwd = std::env::temp_dir().join(format!("csa_cli_contract_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    for bin in "table1 census fig2 fig4 fig5 crossval".split(' ') {
        for case in [
            "--thread 4 => unknown argument \"--thread\"",
            "--quick --quick => --quick given twice",
            "--threads 1 --threads=2 => --threads given twice",
            "--quick --threads => --threads needs a value",
            "--quick=1 => --quick takes no value",
            "--quick stray => unknown argument \"stray\"",
            "--n 65 => bad --n value \"65\"; expected task counts from 1 to 64",
            "--n 4,65 => bad --n value \"4,65\"; expected task counts from 1 to 64",
            "--instance-timeout 5 => unknown argument \"--instance-timeout\"",
            "--reservoir=3 => unknown argument \"--reservoir=3\"",
        ] {
            let (args, reason) = case.split_once(" => ").unwrap();
            if bin == "fig4" && args.contains("--threads") {
                continue; // fig4 takes `--quick` alone
            }
            if (bin == "fig2" || bin == "fig4") && args.contains("--n") {
                continue; // neither sweeps task counts
            }
            let path = std::path::Path::new(env!("CARGO_BIN_EXE_table1")).with_file_name(bin);
            let out = Command::new(path)
                .args(args.split(' '))
                .current_dir(&cwd)
                .env_remove("CSA_MARGIN_CACHE_DIR")
                .output()
                .expect("run binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let named = stderr.starts_with(&format!("{bin}: {reason}"));
            let usage = stderr.contains(&format!("\nusage: {bin} ["));
            let clean = out.stdout.is_empty() && std::fs::read_dir(&cwd).unwrap().next().is_none();
            assert_eq!(out.status.code(), Some(2), "{bin} {args}: {stderr}");
            assert!(named && usage && clean, "{bin} {args}: {stderr}");
        }
    }
    std::fs::remove_dir(&cwd).expect("remove scratch dir");
}

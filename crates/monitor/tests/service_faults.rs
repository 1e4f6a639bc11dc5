//! Fault-injected service tests (require `--features faultinject`):
//! crash-safe snapshot resume and panic quarantine through the real
//! `monitor` binary, driven over JSONL exactly as an operator would.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use csa_experiments::instance_seed;
use csa_monitor::jsonl::request_line;
use csa_monitor::{generate_stream, StreamConfig};

/// Temp workspace removed on drop (also on test panic).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "csa-monitor-{tag}-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stream_text(count: usize) -> String {
    let stream = generate_stream(&StreamConfig {
        count,
        ..StreamConfig::default()
    });
    let mut text = stream
        .iter()
        .map(request_line)
        .collect::<Vec<_>>()
        .join("\n");
    text.push('\n');
    text
}

/// Runs the `monitor` binary in `dir` with `stdin` text and the given
/// extra args; `fault` sets `CSA_FAULT_INJECT`.
fn run_monitor(dir: &Path, stdin: &str, args: &[&str], fault: Option<&str>) -> Output {
    use std::io::Write;
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_monitor"));
    cmd.args(["--min-samples", "8"])
        .args(args)
        .current_dir(dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    match fault {
        Some(spec) => {
            cmd.env("CSA_FAULT_INJECT", spec);
        }
        None => {
            cmd.env_remove("CSA_FAULT_INJECT");
        }
    }
    let mut child = cmd.spawn().expect("spawn monitor");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin.as_bytes())
        .expect("write stream");
    child.wait_with_output().expect("monitor exit")
}

#[test]
fn injected_panic_becomes_replayable_quarantine_response() {
    let scratch = Scratch::new("quarantine");
    let stream = stream_text(16);
    // Default stream: n = 4, ids 1.. with index = id - 1; fault the
    // instance at index 6.
    let out = run_monitor(scratch.path(), &stream, &[], Some("panic:4:6"));
    assert!(
        out.status.success(),
        "monitor must contain the panic: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let quarantined: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"verdict\":\"quarantined\""))
        .collect();
    assert_eq!(quarantined.len(), 1, "stdout:\n{stdout}");
    assert!(quarantined[0].contains("\"id\":7"));
    // The quarantine detail carries the panic message and the replay
    // seed of exactly that instance.
    let seed = format!("replay seed {:016x}", instance_seed(7, 4, 6));
    assert!(
        quarantined[0].contains("injected panic"),
        "{}",
        quarantined[0]
    );
    assert!(quarantined[0].contains(&seed), "{}", quarantined[0]);
    // Every other request was assessed normally.
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.contains("\"verdict\":"))
            .count(),
        16
    );
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("1 quarantined"), "{summary}");
}

#[test]
fn crash_mid_stream_resumes_to_byte_identical_snapshot() {
    let baseline = Scratch::new("uninterrupted");
    let stream = stream_text(24);

    // Reference: the full stream, no faults.
    let out = run_monitor(baseline.path(), &stream, &["--snapshot-dir", "snap"], None);
    assert!(out.status.success());
    let want_stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let want_snapshot =
        std::fs::read_to_string(baseline.path().join("snap/monitor.csamon")).expect("snapshot");

    // Interrupted: abort while materializing instance index 13 (request
    // 14, after 13 answered and snapshotted requests), then resume with
    // the same stream. These runs spell `--snapshot-dir=snap`, so byte
    // identity also pins the `=` form.
    let crashed = Scratch::new("crashed");
    let out = run_monitor(
        crashed.path(),
        &stream,
        &["--snapshot-dir=snap"],
        Some("abort:4:13"),
    );
    assert!(!out.status.success(), "abort must kill the process");
    let partial_stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let partial_snapshot =
        std::fs::read_to_string(crashed.path().join("snap/monitor.csamon")).expect("partial");
    assert!(want_snapshot != partial_snapshot || partial_stdout.is_empty());

    let out = run_monitor(
        crashed.path(),
        &stream,
        &["--snapshot-dir=snap", "--resume"],
        None,
    );
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed_stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let resumed_snapshot =
        std::fs::read_to_string(crashed.path().join("snap/monitor.csamon")).expect("resumed");

    // The final learned state is byte-identical to the uninterrupted
    // run, and the concatenated response stream matches it too.
    assert_eq!(resumed_snapshot, want_snapshot);
    let combined = format!("{partial_stdout}{resumed_stdout}");
    assert_eq!(combined, want_stdout);
}

#[test]
fn resume_with_changed_fingerprint_starts_fresh() {
    let scratch = Scratch::new("stale");
    let stream = stream_text(8);
    let out = run_monitor(scratch.path(), &stream, &["--snapshot-dir", "snap"], None);
    assert!(out.status.success());

    // A different z-threshold invalidates the learned state.
    let out = run_monitor(
        scratch.path(),
        &stream,
        &["--snapshot-dir", "snap", "--resume", "--z", "2.5"],
        None,
    );
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mismatch on z") && stderr.contains("starting fresh"),
        "{stderr}"
    );
    // Fresh run processes all 8 requests again.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().filter(|l| l.contains("\"seq\":")).count(), 8);
}

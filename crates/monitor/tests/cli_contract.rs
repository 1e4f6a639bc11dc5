//! `monitor` and `monitor_stream` refuse a malformed command line with
//! exit 2, `<bin>: <reason>` and a usage line, before writing anything,
//! and read `--flag=VALUE` exactly as `--flag VALUE`; `monitor` answers
//! each request before reading the next, stops with exit 2 at a request
//! line it cannot read, and with exit 1 at a stdout it cannot write.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use csa_core::ControlTask;
use csa_monitor::jsonl::request_line;
use csa_monitor::{generate_stream, Payload, Request, StreamConfig};

#[test]
fn command_lines_are_read_strictly() {
    let cwd = std::env::temp_dir().join(format!("csa_monitor_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    for case in [
        "monitor --thread 4 => unknown argument \"--thread\"",
        "monitor --z 1 --z=2 => --z given twice",
        "monitor --batch 8 => unknown argument \"--batch\"",
        "monitor --threads 2 => unknown argument \"--threads\"",
        "monitor --min-coverage 2 => unknown argument \"--min-coverage\"",
        "monitor --drift-window 3 => unknown argument \"--drift-window\"",
        "monitor --drift-threshold 1 => unknown argument \"--drift-threshold\"",
        "monitor --z => --z needs a value",
        "monitor --snapshot-dir s --resume=1 => --resume takes no value",
        "monitor stray => unknown argument \"stray\"",
        "monitor --resume => --resume requires --snapshot-dir",
        "monitor --z nan => bad --z value \"nan\"",
        "monitor --z -1 => bad --z value \"-1\"",
        "monitor_stream --thread 4 => unknown argument \"--thread\"",
        "monitor_stream --count 1 --count=2 => --count given twice",
        "monitor_stream --seed => --seed needs a value",
        "monitor_stream stray => unknown argument \"stray\"",
        "monitor_stream --n 65 => bad --n value \"65\"; expected task counts from 1 to 64",
        "monitor_stream --n 4,65 => bad --n value \"4,65\"; expected task counts from 1 to 64",
    ] {
        let (command, reason) = case.split_once(" => ").unwrap();
        let (bin, args) = command.split_once(' ').unwrap();
        let path = std::path::Path::new(env!("CARGO_BIN_EXE_monitor")).with_file_name(bin);
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
    std::fs::remove_dir(&cwd).expect("remove scratch dir");

    // A non-UTF-8 argument is refused with a reason, not a panic.
    let bad = <std::ffi::OsStr as std::os::unix::ffi::OsStrExt>::from_bytes(b"\xff");
    let monitor = env!("CARGO_BIN_EXE_monitor");
    let out = Command::new(monitor).arg(bad).output().expect("run");
    let named =
        String::from_utf8_lossy(&out.stderr).starts_with("monitor: argument \"\\xFF\" is not");
    assert!(out.status.code() == Some(2) && named);

    // A request above the task ceiling, one whose key is repeated, or one
    // that is not JSON stops the stream with exit 2 and its line number;
    // the request before it has been answered already.
    for (line, reason) in [
        (
            "{\"id\":2,\"profile\":\"continuous\",\"seed\":1,\"n\":65,\"index\":0}",
            "field \"n\" must be",
        ),
        (
            "{\"id\":2,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"n\":8,\"index\":0}",
            "duplicate key \"n\"",
        ),
        (
            "{\"id\":2,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0,}",
            "trailing comma before '}'",
        ),
    ] {
        let mut child = Command::new(monitor)
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn monitor");
        let first = "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}";
        let mut stdin = child.stdin.take().expect("stdin");
        write!(stdin, "{first}\n{line}\n").expect("write requests");
        drop(stdin);
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = stderr.starts_with(&format!("monitor: malformed request on line 2: {reason}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let answered: Vec<&str> = stdout.lines().collect();
        assert!(out.status.code() == Some(2) && named, "{stderr}");
        assert!(
            answered.len() == 1 && answered[0].starts_with("{\"id\":1,"),
            "{stdout}"
        );
    }

    // `--flag=VALUE` reads as `--flag VALUE`: 5 requests, not the default 200.
    let stream = |args: &[&str]| {
        let bin = env!("CARGO_BIN_EXE_monitor_stream");
        Command::new(bin).args(args).output().expect("run").stdout
    };
    let joined = stream(&["--count=5", "--seed=7"]);
    assert_eq!(String::from_utf8_lossy(&joined).lines().count(), 5);
    assert_eq!(joined, stream(&["--count", "5", "--seed", "7"]));
}

/// Each response is printed before the next request is read: the test
/// writes one request line, waits for its response line, and only then
/// writes the next.
#[test]
fn each_request_is_answered_before_the_next_arrives() {
    // The monitor writes no file without `--snapshot-dir`.
    let cwd = std::env::temp_dir().join(format!("csa_monitor_arrival_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_monitor"))
        .current_dir(&cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn monitor");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let (lines, received) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            if lines.send(line.expect("read stdout")).is_err() {
                break;
            }
        }
    });
    let tasks = vec![
        ControlTask::from_parts(0, 500, 1_000, 10_000, 1.2, 4e-6).expect("valid task"),
        ControlTask::from_parts(1, 800, 2_000, 20_000, 1.5, 9e-6).expect("valid task"),
    ];
    for id in 1..=3u64 {
        let payload = Payload::Inline {
            tasks: tasks.clone(),
        };
        writeln!(stdin, "{}", request_line(&Request { id, payload })).expect("write request");
        let response = received
            .recv_timeout(Duration::from_secs(60))
            .expect("a response before the next request");
        let prefix = format!("{{\"id\":{id},\"seq\":{id},");
        assert!(response.starts_with(&prefix), "{response}");
    }
    drop(stdin);
    assert!(child.wait().expect("wait").success());
    reader.join().expect("reader thread");
    assert!(received.try_recv().is_err(), "only the three responses");
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "the monitor left {left:?}");
    std::fs::remove_dir(&cwd).expect("remove scratch dir");
}

/// A reader that closes stdout early (`monitor | head -1`) stops the
/// monitor with exit 1 and a named error, not a panic.
#[test]
fn a_closed_stdout_stops_the_monitor_with_exit_1() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_monitor"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn monitor");
    drop(child.stdout.take());
    let stream: String = generate_stream(&StreamConfig::default())
        .iter()
        .map(|r| request_line(r) + "\n")
        .collect();
    let mut stdin = child.stdin.take().expect("stdin");
    // The monitor may exit before it has read the whole stream.
    let _ = stdin.write_all(stream.as_bytes());
    drop(stdin);
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("monitor: stdout write failed: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

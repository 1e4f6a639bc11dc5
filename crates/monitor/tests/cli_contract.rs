//! `monitor` and `monitor_stream` refuse a malformed command line with
//! exit 2, `<bin>: <reason>` and a usage line, before writing anything,
//! and read `--flag=VALUE` exactly as `--flag VALUE`; `monitor` stops
//! with exit 2 at a request line it cannot read.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn command_lines_are_read_strictly() {
    let cwd = std::env::temp_dir().join(format!("csa_monitor_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    for case in [
        "monitor --thread 4 => unknown argument \"--thread\"",
        "monitor --batch 1 --batch=2 => --batch given twice",
        "monitor --z => --z needs a value",
        "monitor --snapshot-dir s --resume=1 => --resume takes no value",
        "monitor stray => unknown argument \"stray\"",
        "monitor --resume => --resume requires --snapshot-dir",
        "monitor --z nan => bad --z value \"nan\"",
        "monitor --drift-threshold -1 => bad --drift-threshold value \"-1\"",
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

    // A request above the task ceiling stops the stream with exit 2 and
    // its line number, before any request is assessed.
    let mut child = Command::new(monitor)
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn monitor");
    let lines = "{\"id\":1,\"profile\":\"continuous\",\"seed\":1,\"n\":4,\"index\":0}\n\
                 {\"id\":2,\"profile\":\"continuous\",\"seed\":1,\"n\":65,\"index\":0}\n";
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(lines.as_bytes()).expect("write requests");
    drop(stdin);
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let named = stderr.starts_with("monitor: malformed request on line 2: field \"n\" must be");
    let stopped = out.status.code() == Some(2) && out.stdout.is_empty();
    assert!(stopped && named, "{stderr}");

    // `--flag=VALUE` reads as `--flag VALUE`: 5 requests, not the default 200.
    let stream = |args: &[&str]| {
        let bin = env!("CARGO_BIN_EXE_monitor_stream");
        Command::new(bin).args(args).output().expect("run").stdout
    };
    let joined = stream(&["--count=5", "--seed=7"]);
    assert_eq!(String::from_utf8_lossy(&joined).lines().count(), 5);
    assert_eq!(joined, stream(&["--count", "5", "--seed", "7"]));
}

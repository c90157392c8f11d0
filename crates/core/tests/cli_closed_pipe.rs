//! `qymera … | head -1`: the reader closes the pipe before the CLI has
//! written everything. The CLI must end quietly — status 0, no panic text.

use std::process::{Command, Stdio};

/// Run the CLI with a stdout whose read end is already closed.
fn run_with_closed_stdout(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qymera"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qymera");
    // Dropped before the child has even loaded its circuit, so every write
    // it makes to stdout meets a closed pipe.
    drop(child.stdout.take());
    child.wait_with_output().expect("wait for qymera")
}

#[test]
fn closed_stdout_ends_quietly() {
    // `profile` and `trace` write to stdout only: stderr must stay empty.
    for args in [
        &["profile", "--circuit", "ghz:3"][..],
        &["trace", "--circuit", "ghz:3"],
        &["sql", "--circuit", "ghz:3"],
    ] {
        let out = run_with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
    // `run` reports its timing on stderr by design; nothing else may follow.
    let out = run_with_closed_stdout(&["run", "--circuit", "ghz:3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("sql: 3 gates"), "{stderr}");
}

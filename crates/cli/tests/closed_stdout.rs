//! The `bftbcast` binary exits quietly when its reader closes stdout
//! before the output is written.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// A 19 701-point sweep: its `--to key` output (~335 KB) is far larger
/// than a pipe buffer, so the write is still going when the reader
/// hangs up.
const BIG_SWEEP: &str = r#"name = "big"
engine = "counting"
[topology]
side = 15
r = 1
[faults]
t = 1
mf = 10
[placement]
kind = "random"
count = 1
[protocol]
kind = "starved"
m = 11
[adversary]
kind = "oracle"
[sweep]
m = "1..200"
mf = "1..100"
"#;

#[test]
fn a_closed_stdout_ends_the_cli_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("bftbcast-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scn = dir.join("big.scn");
    std::fs::write(&scn, BIG_SWEEP).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_bftbcast"))
        .args(["spec", scn.to_str().unwrap(), "--to", "key"])
        .env("RUST_BACKTRACE", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first.trim().len(), 16, "a 16-hex cache key: {first:?}");
    // The reader is dropped above: stdout is now closed.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!stderr.contains("backtrace"), "stderr: {stderr}");
    assert!(status.success(), "{status}, stderr: {stderr}");
}

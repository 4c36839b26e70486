//! `serve --dir` over a directory written in the retired JSON checkpoint
//! format (`UDBCKPT1`) must exit non-zero with an error that names the
//! format, and must not start serving an empty database.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Copies `from` into `to`, one level of subdirectories deep.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture") {
        let path = entry.expect("entry").path();
        let target = to.join(path.file_name().expect("name"));
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).expect("copy");
        }
    }
}

#[test]
fn serve_refuses_a_retired_checkpoint_directory_by_name() {
    let fixture = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/udbckpt1"
    ));
    let dir = std::env::temp_dir().join(format!("udb-serve-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(fixture, &dir);

    // the fixture was written at one shard (`UDB_SHARDS` may say otherwise)
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--shards", "1", "--dir"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // the server exits before reading; a closed pipe is not a failure here
    let _ = child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"STATS\nQUIT\n");
    let out = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "serve started: {stdout}");
    assert!(
        stderr.contains("retired JSON checkpoint format UDBCKPT1"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("OK objects="), "served: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

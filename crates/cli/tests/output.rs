//! How `mrpf` ends when its result cannot be written, and when `emit`
//! is asked for a module name that is not a Verilog identifier.

use std::process::{Command, Output, Stdio};

fn mrpf(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrpf"))
        .args(args)
        .stdout(stdout)
        .output()
        .expect("mrpf runs")
}

#[test]
fn a_closed_pipe_ends_quietly() {
    for args in [&["--help"][..], &["emit", "suite:3"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = mrpf(args, writer.into());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_device_is_an_error() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = mrpf(&["emit", "suite:3"], full.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn emit_rejects_a_name_that_is_not_an_identifier() {
    for name in ["9bad", "a b"] {
        let out = mrpf(&["emit", "7", "--name", name], Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("--name"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}");
    }
    let out = mrpf(&["emit", "7", "--name", "_ok9"], Stdio::piped());
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("module _ok9 ("));
}

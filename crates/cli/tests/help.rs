//! `mrpf help`, `mrpf -h` and `mrpf --help` all print the usage text and
//! exit 0.

use std::process::Command;

#[test]
fn every_help_form_prints_usage_and_succeeds() {
    for form in ["help", "-h", "--help"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mrpf"))
            .arg(form)
            .output()
            .expect("mrpf runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "`mrpf {form}` exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("USAGE:"), "`mrpf {form}` printed {stdout}");
    }
}

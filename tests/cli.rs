//! End-to-end tests of the `mio` command-line tool: generate → analyze →
//! translate → simulate over real files.

use std::process::Command;

fn mio(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mio"))
        .args(args)
        .output()
        .expect("run mio");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mio-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn help_and_apps_work() {
    let (out, _, ok) = mio(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
    let (out, _, ok) = mio(&["apps"]);
    assert!(ok);
    for app in ["bvi", "ccm", "forma", "gcm", "les", "venus", "upw"] {
        assert!(out.contains(app), "apps output missing {app}");
    }
}

#[test]
fn unknown_commands_fail_cleanly() {
    let (_, err, ok) = mio(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
    let (_, err, ok) = mio(&["generate", "nonesuch"]);
    assert!(!ok);
    assert!(err.contains("unknown app"));
    let (_, err, ok) = mio(&["analyze", "/definitely/not/a/file"]);
    assert!(!ok);
    assert!(err.contains("not a file") || err.contains("No such file"));
}

#[test]
fn generate_analyze_roundtrip() {
    let path = tmp("ccm.trace");
    let (_, err, ok) = mio(&["generate", "ccm", "--scale", "16", "--seed", "9", "-o", &path]);
    assert!(ok, "generate failed: {err}");
    assert!(err.contains("generated ccm"));

    let (out, _, ok) = mio(&["analyze", &path]);
    assert!(ok);
    assert!(out.contains("MB/s"));
    assert!(out.contains("sequential"));
    assert!(out.contains("data-swap"));

    // Determinism: regenerating with the same seed produces an identical
    // file.
    let path2 = tmp("ccm2.trace");
    mio(&["generate", "ccm", "--scale", "16", "--seed", "9", "-o", &path2]);
    let a = std::fs::read(&path).unwrap();
    let b = std::fs::read(&path2).unwrap();
    assert_eq!(a, b, "same seed must produce byte-identical traces");
}

#[test]
fn translate_then_simulate() {
    let logical = tmp("upw.trace");
    let physical = tmp("upw-phys.trace");
    mio(&["generate", "upw", "--scale", "8", "-o", &logical]);
    let (_, err, ok) = mio(&["translate", &logical, "-o", &physical]);
    assert!(ok, "translate failed: {err}");
    assert!(err.contains("amplification"));

    let (out, err, ok) = mio(&["simulate", &logical, "--cache", "16"]);
    assert!(ok, "simulate failed: {err}");
    assert!(out.contains("utilization"));
    assert!(out.contains("I/Os"));

    // Policy and tier switches parse.
    let (out, _, ok) = mio(&["simulate", &logical, "--cache", "ssd", "--policy", "sprite"]);
    assert!(ok);
    assert!(out.contains("ssd tier"));
    let (out, _, ok) = mio(&["simulate", &logical, "--cache", "none", "--cpus", "2"]);
    assert!(ok);
    assert!(out.contains("2 CPUs"));
}

#[test]
fn submit_accepts_progress_and_serve_refuses_shards() {
    let socket = tmp("no-daemon.sock");
    let _ = std::fs::remove_file(&socket);
    let (_, err, ok) = mio(&["submit", "--socket", &socket, "--progress", "--stats"]);
    assert!(!ok);
    assert!(!err.contains("unexpected argument"), "--progress refused: {err}");
    assert!(err.contains(&format!("connect {socket}")), "fails on the connect: {err}");

    // An unbindable address, so a daemon that took the flag fails too
    // instead of serving forever.
    let (_, err, ok) = mio(&["serve", "--tcp", "not-an-address", "--shards", "4"]);
    assert!(!ok);
    assert!(err.contains("unexpected argument `--shards`"), "{err}");
}

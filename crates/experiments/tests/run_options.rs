//! `RunOptions` end to end: `install` puts every process-wide value
//! where its owner reads it, in the order the owners need, and `finish`
//! writes the outputs the options asked for. The repro binaries turn
//! every malformed option, from a flag or its variable, into exit
//! status 2 with a one-line message.
//!
//! `install` sets process-wide state, so one `#[test]` owns it; this
//! integration test binary runs in its own process.

use experiments::figures::two_venus_report;
use experiments::{
    progress_enabled, thread_count, RunOptions, Scale, Scope, StoreConfig, TraceStore,
};
use std::process::Command;

#[test]
fn install_sets_every_owner_and_finish_writes_the_outputs() {
    let dir = std::env::temp_dir().join(format!("miller-runopts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    // The ring size is installed before --profile enables recording,
    // so the first enable allocates 8 slots.
    let line = format!(
        "bin --quick --threads 3 --progress --timeline 1000000 --timeline-out {} \
         --profile {} --profile-capacity 8 --trace-mem-budget 1",
        path("tl.json"),
        path("profile.json"),
    );
    let mut args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let opts = RunOptions::parse(&mut args, |_| None, Scope::Repro).expect("well-formed");
    assert_eq!(args, ["bin", "--quick"]);
    opts.install();

    assert_eq!(thread_count(), 3);
    assert!(progress_enabled());
    assert_eq!(
        obs::timeline::configured_interval_ticks(),
        Some(1_000_000 / sim_core::TICK_NANOS)
    );
    assert!(obs::enabled(), "--profile turns recording on");
    assert_eq!(
        obs::summary().capacity,
        8,
        "capacity applied before the ring allocated"
    );
    assert!(
        TraceStore::global().streaming(),
        "the global store took the budget"
    );
    assert!(
        !TraceStore::init_global(StoreConfig::default()),
        "first configuration wins"
    );

    let r = two_venus_report(
        8 * sim_core::units::MB,
        4096,
        true,
        buffer_cache::WritePolicy::WriteBehind,
        Scale(64),
        42,
    );
    assert!(r.utilization() > 0.0);
    opts.finish();
    assert!(!obs::enabled(), "finish stops recording");
    for name in ["tl.json", "profile.json"] {
        let text = std::fs::read_to_string(dir.join(name)).expect("output written");
        serde_json::from_str::<serde::Value>(&text).expect("valid JSON");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `repro-tables` with `args` and `vars` set on the child only;
/// expect exit status 2 and exactly `message` on stderr.
fn assert_usage_error(args: &[&str], vars: &[(&str, &str)], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro-tables"))
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("run repro-tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {vars:?}: {stderr}");
    assert_eq!(stderr, format!("{message}\n"));
}

#[test]
fn malformed_options_exit_2_with_one_line() {
    assert_usage_error(&["--json"], &[], "--json needs a value");
    assert_usage_error(
        &["--threads", "0"],
        &[],
        "--threads needs a positive integer, got `0`",
    );
    assert_usage_error(
        &["--timeline"],
        &[],
        "--timeline needs a sample interval in simulated nanoseconds",
    );
    assert_usage_error(
        &[],
        &[("MILLER_THREADS", "lots")],
        "--threads needs a positive integer, got `lots` (from MILLER_THREADS)",
    );
    assert_usage_error(
        &[],
        &[("MILLER_TRACE_MEM_BUDGET", "big")],
        "--trace-mem-budget needs an integer MB count, got `big` (from MILLER_TRACE_MEM_BUDGET)",
    );
}

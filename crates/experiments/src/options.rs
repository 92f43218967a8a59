//! Run options: every parameter a binary takes from outside, parsed once.
//!
//! A run's configuration — sweep threads, campaign shards, device era,
//! trace-store spilling, the sweep heartbeat, gauge timelines and span
//! profiling — is declared here exactly once, as one row of `ROWS`:
//! the flag, its `MILLER_*` environment fallback, its default and its
//! validation. [`RunOptions::parse`] applies the rows a front end reads
//! (its [`Scope`]) to the argument list and an environment lookup. It
//! is pure: `process_env` is the only code in the workspace that reads
//! the process environment.
//!
//! Values then leave two ways. Per-run values — `shards`, `devices` and
//! `store` — are fields the binary passes on as arguments. Process-wide
//! values are set once by [`RunOptions::install`], each into typed state
//! owned by the module that uses it: the pool size and heartbeat in
//! [`mod@crate::par_sweep`], the sample interval in [`obs::timeline`], the
//! ring size and enable flag in [`obs::recorder`], and the spill
//! configuration of [`TraceStore::global`]. [`RunOptions::finish`]
//! writes the profile and timeline outputs the run asked for.
//!
//! The module also holds the small argument helpers the binaries share
//! ([`take_flag`], [`take_switch`], [`take_parsed`], [`or_exit`],
//! [`write_json`]).

use crate::modern::DeviceEra;
use crate::trace_store::{StoreConfig, TraceStore};
use serde::Serialize;
use std::str::FromStr;

/// Everything a run can be configured with from outside.
#[derive(Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Sweep worker threads; `None` sizes the pool to the available
    /// cores.
    pub threads: Option<usize>,
    /// Sharded-engine worker threads for `repro-sim`'s campaigns and
    /// modern cluster run. Reports are shard-count-invariant.
    pub shards: usize,
    /// Device era for `repro-sim`: [`DeviceEra::Era2026`] selects the
    /// `--devices modern` rerun.
    pub devices: DeviceEra,
    /// Spill configuration of the shared trace store.
    pub store: StoreConfig,
    /// Throttled stderr heartbeat during sweeps and `mio submit`.
    pub progress: bool,
    /// Gauge-timeline sample interval in simulated nanoseconds.
    pub timeline: Option<u64>,
    /// Where [`RunOptions::finish`] writes the timelines as JSON.
    pub timeline_out: Option<String>,
    /// Where [`RunOptions::finish`] writes the span profile; recording
    /// is on when set.
    pub profile: Option<String>,
    /// Flight-recorder ring size in events.
    pub profile_capacity: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            threads: None,
            shards: 1,
            devices: DeviceEra::Era1991,
            store: StoreConfig::default(),
            progress: false,
            timeline: None,
            timeline_out: None,
            profile: None,
            profile_capacity: None,
        }
    }
}

/// Which rows a front end reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The five `repro-*` binaries: every row.
    Repro,
    /// `mio serve` and `repro_bench`: every row except `--shards` and
    /// `--devices`, which each served request or bench sweep sets itself.
    Service,
    /// `mio submit`: the heartbeat only.
    Client,
}

const ALL: &[Scope] = &[Scope::Repro, Scope::Service, Scope::Client];
const RUNS: &[Scope] = &[Scope::Repro, Scope::Service];
const REPRO: &[Scope] = &[Scope::Repro];

/// One run option: the flag, where else its value may come from, and
/// how it is checked and stored.
struct Row {
    flag: &'static str,
    /// Fallback read only when the flag is absent; an empty value counts
    /// as unset.
    env: &'static str,
    /// What an absent flag and variable mean; the README's run-options
    /// table must say the same (checked by a test).
    #[cfg_attr(not(test), allow(dead_code))]
    default: &'static str,
    scopes: &'static [Scope],
    /// Completes "`flag` needs …" when the value is missing; `None`
    /// marks a bare switch.
    missing: Option<&'static str>,
    /// Completes "`flag` needs …, got `raw`" for a rejected value.
    wants: &'static str,
    /// Validate a raw value into the options; `None` rejects it.
    set: fn(&mut RunOptions, &str) -> Option<()>,
}

/// `raw` as an integer no smaller than `min`.
fn int<T: FromStr + PartialOrd>(raw: &str, min: T) -> Option<T> {
    raw.trim().parse().ok().filter(|n| *n >= min)
}

/// The run options, in the order they are applied (which is also the
/// order errors are reported in).
const ROWS: [Row; 10] = [
    Row {
        flag: "--threads",
        env: "MILLER_THREADS",
        default: "available cores",
        scopes: RUNS,
        missing: Some("a value"),
        wants: "a positive integer",
        set: |o, v| int(v, 1).map(|n| o.threads = Some(n)),
    },
    Row {
        flag: "--shards",
        env: "MILLER_SHARDS",
        default: "1",
        scopes: REPRO,
        missing: Some("a value"),
        wants: "a positive integer",
        set: |o, v| int(v, 1).map(|n| o.shards = n),
    },
    Row {
        flag: "--trace-dir",
        env: "MILLER_TRACE_DIR",
        default: "per-process temp dir",
        scopes: RUNS,
        missing: Some("a path"),
        wants: "a path",
        // A path cannot fail to parse, so catch the swallowed-flag
        // mistake (`--trace-dir --quick`) explicitly.
        set: |o, v| {
            (!v.trim().is_empty() && !v.starts_with("--"))
                .then(|| o.store.spill_dir = Some(v.into()))
        },
    },
    Row {
        flag: "--trace-mem-budget",
        env: "MILLER_TRACE_MEM_BUDGET",
        default: "unbounded",
        scopes: RUNS,
        missing: Some("a value in MB"),
        wants: "an integer MB count",
        set: |o, v| {
            let bytes = int::<usize>(v, 0)?.checked_mul(1024 * 1024);
            bytes.map(|b| o.store.mem_budget = Some(b))
        },
    },
    Row {
        flag: "--devices",
        env: "MILLER_DEVICES",
        default: "paper",
        scopes: REPRO,
        missing: Some("an era (paper|1991|modern)"),
        wants: "one of paper|1991|modern",
        set: |o, v| {
            o.devices = match v.trim() {
                "paper" | "1991" => DeviceEra::Era1991,
                "modern" => DeviceEra::Era2026,
                _ => return None,
            };
            Some(())
        },
    },
    Row {
        flag: "--progress",
        env: "MILLER_PROGRESS",
        default: "off",
        scopes: ALL,
        missing: None,
        wants: "",
        // The bare switch arrives as "1"; the variable turns it on with
        // anything but "0".
        set: |o, v| {
            o.progress = v != "0";
            Some(())
        },
    },
    Row {
        flag: "--timeline",
        env: "MILLER_TIMELINE",
        default: "off",
        scopes: RUNS,
        missing: Some("a sample interval in simulated nanoseconds"),
        wants: "a positive nanosecond interval",
        set: |o, v| int(v, 1).map(|ns| o.timeline = Some(ns)),
    },
    Row {
        flag: "--timeline-out",
        env: "MILLER_TIMELINE_OUT",
        default: "not written",
        scopes: RUNS,
        missing: Some("an output path"),
        wants: "",
        set: |o, v| {
            o.timeline_out = Some(v.into());
            Some(())
        },
    },
    Row {
        flag: "--profile-capacity",
        env: "MILLER_PROFILE_CAPACITY",
        default: "1048576 events",
        scopes: RUNS,
        missing: Some("an event count"),
        wants: "a positive event count",
        set: |o, v| int(v, 1).map(|n| o.profile_capacity = Some(n)),
    },
    Row {
        flag: "--profile",
        env: "MILLER_PROFILE",
        default: "off",
        scopes: RUNS,
        missing: Some("an output path"),
        wants: "",
        set: |o, v| {
            o.profile = Some(v.into());
            Some(())
        },
    },
];

/// The process environment as [`RunOptions::parse`] sees it.
#[allow(clippy::disallowed_methods)] // the one sanctioned environment read
fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

impl RunOptions {
    /// Apply the rows `scope` reads: each flag is removed from `args`
    /// and wins over its `MILLER_*` variable, looked up through `env`.
    /// A malformed value from either source is an error naming the flag.
    pub fn parse(
        args: &mut Vec<String>,
        env: impl Fn(&str) -> Option<String>,
        scope: Scope,
    ) -> Result<RunOptions, String> {
        let mut opts = RunOptions::default();
        for row in ROWS.iter().filter(|r| r.scopes.contains(&scope)) {
            let flag = match row.missing {
                None => take_switch(args, row.flag).then(|| "1".to_string()),
                Some(missing) => take_value(args, row.flag, missing)?,
            };
            let (raw, from) = match flag {
                Some(raw) => (raw, String::new()),
                None => match env(row.env).filter(|v| !v.is_empty()) {
                    Some(raw) => (raw, format!(" (from {})", row.env)),
                    None => continue,
                },
            };
            if (row.set)(&mut opts, &raw).is_none() {
                return Err(format!(
                    "{} needs {}, got `{raw}`{from}",
                    row.flag, row.wants
                ));
            }
        }
        Ok(opts)
    }

    /// [`RunOptions::parse`] against the process environment, then
    /// [`RunOptions::install`]. Each binary calls this once, first thing
    /// in `main`.
    pub fn from_process(args: &mut Vec<String>, scope: Scope) -> Result<RunOptions, String> {
        let opts = RunOptions::parse(args, process_env, scope)?;
        opts.install();
        Ok(opts)
    }

    /// Set the process-wide values, in the order their owners need:
    /// the shared trace store's spill configuration before anything
    /// touches the store, the sweep pool, the timeline interval before
    /// the first simulation, and the ring size before `--profile`
    /// enables recording (the first enable allocates the ring).
    pub fn install(&self) {
        TraceStore::init_global(self.store.clone());
        crate::par_sweep::configure(self.threads, self.progress);
        obs::timeline::set_interval_ns(self.timeline);
        if let Some(capacity) = self.profile_capacity {
            obs::init(capacity);
        }
        if self.profile.is_some() {
            obs::set_enabled(true);
        }
    }

    /// Write the span profile and the gauge timelines the options asked
    /// for. Call once, after the last simulation.
    pub fn finish(&self) {
        if let Some(path) = &self.profile {
            obs::finish_profile(path);
        }
        if let Some(path) = &self.timeline_out {
            obs::finish_timelines(path);
        }
    }
}

fn take_value(args: &mut Vec<String>, flag: &str, missing: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs {missing}"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Remove `flag` and the value after it from `args`, returning the
/// value, or an error when the flag is the last argument.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    take_value(args, flag, "a value")
}

/// [`take_flag`], parsed: `bad FLAG` when the value does not parse.
pub fn take_parsed<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    take_flag(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("bad {flag}")))
        .transpose()
}

/// Remove a bare switch from `args`, reporting whether it was there.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(i);
    true
}

/// The value of a command-line result, or its message on stderr and
/// exit status 2 (a usage error).
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Write `value` to `path` as pretty-printed JSON (the `--json` output
/// of every binary), exiting with status 1 when the file cannot be
/// written.
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    let text = serde_json::to_string_pretty(value).expect("reports serialize");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn no_env(_: &str) -> Option<String> {
        None
    }

    /// One case per row: a good value and the options it yields, a
    /// different good value for the environment, and every rejected
    /// value with the exact error the flag gives.
    struct Case {
        flag: &'static str,
        good: &'static str,
        want: fn(&mut RunOptions),
        env_good: &'static str,
        env_want: fn(&mut RunOptions),
        missing: &'static str,
        bad: &'static [(&'static str, &'static str)],
    }

    const CASES: [Case; 10] = [
        Case {
            flag: "--threads",
            good: "3",
            want: |o| o.threads = Some(3),
            env_good: "5",
            env_want: |o| o.threads = Some(5),
            missing: "--threads needs a value",
            bad: &[
                ("0", "--threads needs a positive integer, got `0`"),
                ("many", "--threads needs a positive integer, got `many`"),
            ],
        },
        Case {
            flag: "--shards",
            good: "4",
            want: |o| o.shards = 4,
            env_good: "2",
            env_want: |o| o.shards = 2,
            missing: "--shards needs a value",
            bad: &[
                ("0", "--shards needs a positive integer, got `0`"),
                ("many", "--shards needs a positive integer, got `many`"),
            ],
        },
        Case {
            flag: "--trace-dir",
            good: "frames",
            want: |o| o.store.spill_dir = Some(PathBuf::from("frames")),
            env_good: "cache",
            env_want: |o| o.store.spill_dir = Some(PathBuf::from("cache")),
            missing: "--trace-dir needs a path",
            bad: &[
                ("  ", "--trace-dir needs a path, got `  `"),
                ("--quick", "--trace-dir needs a path, got `--quick`"),
            ],
        },
        Case {
            flag: "--trace-mem-budget",
            good: "64",
            want: |o| o.store.mem_budget = Some(64 << 20),
            env_good: "0",
            env_want: |o| o.store.mem_budget = Some(0),
            missing: "--trace-mem-budget needs a value in MB",
            bad: &[
                (
                    "lots",
                    "--trace-mem-budget needs an integer MB count, got `lots`",
                ),
                (
                    "-1",
                    "--trace-mem-budget needs an integer MB count, got `-1`",
                ),
            ],
        },
        Case {
            flag: "--devices",
            good: "modern",
            want: |o| o.devices = DeviceEra::Era2026,
            env_good: "modern",
            env_want: |o| o.devices = DeviceEra::Era2026,
            missing: "--devices needs an era (paper|1991|modern)",
            bad: &[(
                "2026",
                "--devices needs one of paper|1991|modern, got `2026`",
            )],
        },
        Case {
            flag: "--progress",
            good: "",
            want: |o| o.progress = true,
            env_good: "1",
            env_want: |o| o.progress = true,
            missing: "",
            bad: &[],
        },
        Case {
            flag: "--timeline",
            good: "1000000",
            want: |o| o.timeline = Some(1_000_000),
            env_good: "5",
            env_want: |o| o.timeline = Some(5),
            missing: "--timeline needs a sample interval in simulated nanoseconds",
            bad: &[
                (
                    "0",
                    "--timeline needs a positive nanosecond interval, got `0`",
                ),
                (
                    "1ms",
                    "--timeline needs a positive nanosecond interval, got `1ms`",
                ),
            ],
        },
        Case {
            flag: "--timeline-out",
            good: "tl.json",
            want: |o| o.timeline_out = Some("tl.json".into()),
            env_good: "env.json",
            env_want: |o| o.timeline_out = Some("env.json".into()),
            missing: "--timeline-out needs an output path",
            bad: &[],
        },
        Case {
            flag: "--profile-capacity",
            good: "8",
            want: |o| o.profile_capacity = Some(8),
            env_good: "16",
            env_want: |o| o.profile_capacity = Some(16),
            missing: "--profile-capacity needs an event count",
            bad: &[
                (
                    "0",
                    "--profile-capacity needs a positive event count, got `0`",
                ),
                (
                    "lots",
                    "--profile-capacity needs a positive event count, got `lots`",
                ),
            ],
        },
        Case {
            flag: "--profile",
            good: "out.json",
            want: |o| o.profile = Some("out.json".into()),
            env_good: "env.json",
            env_want: |o| o.profile = Some("env.json".into()),
            missing: "--profile needs an output path",
            bad: &[],
        },
    ];

    fn expect(edit: fn(&mut RunOptions)) -> RunOptions {
        let mut o = RunOptions::default();
        edit(&mut o);
        o
    }

    #[test]
    fn every_row_parses_falls_back_overrides_and_rejects() {
        let flags: Vec<_> = ROWS.iter().map(|r| r.flag).collect();
        let cased: Vec<_> = CASES.iter().map(|c| c.flag).collect();
        assert_eq!(flags, cased, "one case per row, in row order");
        for (row, case) in ROWS.iter().zip(&CASES) {
            let flag = case.flag;
            let given = format!("bin {flag} {} --quick", case.good);
            let env_of = |v: &'static str| move |name: &str| (name == row.env).then(|| v.into());

            // Happy path: the flag (and its value) leave the args.
            let mut args = argv(&given);
            let got = RunOptions::parse(&mut args, no_env, Scope::Repro);
            assert_eq!(got, Ok(expect(case.want)), "{flag}");
            assert_eq!(args, argv("bin --quick"), "{flag} consumed");

            // Env fallback, and an empty variable counts as unset.
            let mut args = argv("bin --quick");
            let got = RunOptions::parse(&mut args, env_of(case.env_good), Scope::Repro);
            assert_eq!(got, Ok(expect(case.env_want)), "{}", row.env);
            let got = RunOptions::parse(&mut args, env_of(""), Scope::Repro);
            assert_eq!(got, Ok(RunOptions::default()), "empty {}", row.env);

            // The flag overrides the variable, even a malformed one.
            let bad_env = case.bad.first().map_or(case.env_good, |(v, _)| *v);
            let mut args = argv(&given);
            let got = RunOptions::parse(&mut args, env_of(bad_env), Scope::Repro);
            assert_eq!(got, Ok(expect(case.want)), "{flag} over {}", row.env);

            // Missing value, then each malformed value from the flag and
            // from the variable.
            if row.missing.is_some() {
                let got =
                    RunOptions::parse(&mut argv(&format!("bin {flag}")), no_env, Scope::Repro);
                assert_eq!(got, Err(case.missing.to_string()));
            }
            for (value, err) in case.bad {
                let mut args = vec!["bin".to_string(), flag.to_string(), value.to_string()];
                let got = RunOptions::parse(&mut args, no_env, Scope::Repro);
                assert_eq!(got, Err(err.to_string()));
                let got = RunOptions::parse(&mut argv("bin"), env_of(value), Scope::Repro);
                assert_eq!(got, Err(format!("{err} (from {})", row.env)));
            }
        }
    }

    #[test]
    fn scopes_leave_unread_flags_and_variables_alone() {
        let line = "--shards 4 --devices modern --threads 2 --progress";
        let garbage = |_: &str| Some("garbage".to_string());

        let mut args = argv(line);
        let got = RunOptions::parse(&mut args, no_env, Scope::Service).expect("valid");
        assert_eq!((got.shards, got.threads, got.progress), (1, Some(2), true));
        assert_eq!(got.devices, DeviceEra::Era1991);
        assert_eq!(
            args,
            argv("--shards 4 --devices modern"),
            "left for the caller to reject"
        );

        // A client reads the heartbeat only: `--shards` is its request's,
        // and no other variable can fail it.
        let mut args = argv(line);
        let got = RunOptions::parse(&mut args, garbage, Scope::Client).expect("valid");
        assert!(got.progress);
        assert_eq!(args, argv("--shards 4 --devices modern --threads 2"));
        let off = |name: &str| (name == "MILLER_PROGRESS").then(|| "0".to_string());
        assert!(
            !RunOptions::parse(&mut argv(""), off, Scope::Client)
                .unwrap()
                .progress
        );
    }

    #[test]
    fn readme_documents_every_row() {
        let readme = include_str!("../../../README.md");
        for row in &ROWS {
            let documented = readme.lines().any(|l| {
                l.starts_with(&format!("| `{}", row.flag))
                    && l.contains(&format!("`{}`", row.env))
                    && l.contains(row.default)
            });
            assert!(
                documented,
                "README run-options table lacks {} / {}",
                row.flag, row.env
            );
        }
    }

    #[test]
    fn missing_and_unparsable_values_are_errors_not_panics() {
        let missing = take_flag(&mut argv("--quick --json"), "--json");
        assert_eq!(missing, Err("--json needs a value".into()));
        let mut args = argv("venus --seed 9 --scale x");
        assert_eq!(take_parsed::<u64>(&mut args, "--seed"), Ok(Some(9)));
        assert_eq!(
            take_parsed::<u32>(&mut args, "--scale"),
            Err("bad --scale".into())
        );
        assert_eq!(take_parsed::<u32>(&mut args, "--cpus"), Ok(None));
    }
}

//! Regenerate Figures 6, 7 and 8 (the buffering simulations).
//!
//! Takes every run option (`--threads`, `--shards`, `--devices`,
//! `--trace-dir`, `--trace-mem-budget`, `--progress`, `--timeline`,
//! `--timeline-out`, `--profile-capacity`, `--profile`); the README's
//! run-options table lists them with their `MILLER_*` fallbacks and
//! defaults.
//!
//! `--fig8-point MB:BLOCK` runs a single Figure 8 sweep point (e.g.
//! `32:4096` = 32 MB cache, 4 KiB blocks) instead of the full set —
//! the cheap way to capture a sample trace in CI; `--json PATH` writes
//! its [`iosim::SimReport`], the same bytes `mio submit --json` writes
//! for the served point.
//!
//! `--campaign GROUPSxPROCS` runs a cluster-scale sharded campaign
//! instead (e.g. `1000x10` = 1000 groups of 10 processes) on
//! `--shards N` worker threads; `--json PATH` then writes the
//! [`iosim::ClusterReport`], which is byte-identical at any shard count.
//!
//! `--devices modern` reruns the Figure 8 cache sweep on 2026 hardware
//! (queue-aware NVMe + elevator disk + tape in a tiered hierarchy, CPU
//! 500× faster) side by side with the 1991 run, answering whether the
//! paper's ">99% CPU utilization with an SSD-sized cache" claim
//! survives; `--json PATH` writes the
//! [`experiments::ModernComparison`], byte-identical at any `--shards`.
//!
//! `--dfg-out PATH` additionally runs the post-hoc directly-follows
//! analysis over the figure traces — exported as binary frame files and
//! scanned block-by-block in parallel — writing the report JSON to PATH
//! and a Graphviz rendering next to it (`.dot`).

use experiments::campaign::{run_campaign, CampaignSpec};
use experiments::figures::{fig6, fig7, fig8, render_fig8, two_venus_report};
use experiments::nplus1::{nplus1, render_nplus1};
use experiments::options::{or_exit, take_flag, write_json};
use experiments::{DeviceEra, RunOptions, Scale, Scope};
use sim_core::units::MB;

fn parse_campaign(raw: &str) -> Result<(usize, usize), String> {
    let (groups, procs) = raw
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--campaign wants GROUPSxPROCS (e.g. 1000x10), got `{raw}`"))?;
    let groups: usize = groups
        .trim()
        .parse()
        .map_err(|_| format!("--campaign group count must be an integer, got `{groups}`"))?;
    let procs: usize = procs
        .trim()
        .parse()
        .map_err(|_| format!("--campaign process count must be an integer, got `{procs}`"))?;
    if groups == 0 || procs == 0 {
        return Err("--campaign counts must be positive".into());
    }
    Ok((groups, procs))
}

fn parse_fig8_point(raw: &str) -> Result<(u64, u64), String> {
    let (mb, block) = raw
        .split_once(':')
        .ok_or_else(|| format!("--fig8-point wants MB:BLOCK, got `{raw}`"))?;
    let mb: u64 = mb
        .trim()
        .parse()
        .map_err(|_| format!("--fig8-point cache size must be an integer MB, got `{mb}`"))?;
    let block: u64 = block
        .trim()
        .parse()
        .map_err(|_| format!("--fig8-point block size must be an integer, got `{block}`"))?;
    if mb == 0 || block == 0 {
        return Err("--fig8-point sizes must be positive".into());
    }
    Ok((mb, block))
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let opts = or_exit(RunOptions::from_process(&mut args, Scope::Repro));
    let json = or_exit(take_flag(&mut args, "--json"));
    let dfg_out = or_exit(take_flag(&mut args, "--dfg-out"));
    let campaign = or_exit(take_flag(&mut args, "--campaign"));
    let fig8_point = or_exit(take_flag(&mut args, "--fig8-point"));
    let scale = if args.iter().any(|a| a == "--quick") { Scale(8) } else { Scale::FULL };

    if opts.devices == DeviceEra::Era2026 {
        let c = experiments::modern_comparison(scale, 42, opts.shards);
        print!("{}", experiments::render_modern(&c));
        if let Some(path) = &json {
            write_json(path, &c);
        }
    } else if let Some(raw) = campaign {
        let (groups, procs) = or_exit(parse_campaign(&raw));
        let shards = opts.shards;
        let spec = CampaignSpec::datacenter(groups, procs);
        let report = run_campaign(&spec, shards);
        println!(
            "campaign {groups}x{procs} on {shards} shard(s): {} processes, {} I/Os, \
             {} epochs, {} remote ops ({} MB), utilization {:.1}%, hit ratio {:.3}",
            report.total_processes,
            report.ios_issued,
            report.epochs,
            report.remote_ops,
            report.remote_bytes / MB,
            report.utilization() * 100.0,
            report.cache.hit_ratio(),
        );
        if let Some(path) = &json {
            write_json(path, &report);
        }
    } else if let Some(raw) = fig8_point {
        let (mb, block) = or_exit(parse_fig8_point(&raw));
        // Through the sweep harness (a 1-point sweep) so a profiled run
        // carries a host worker track alongside the simulated-process
        // tracks — the trace then demonstrates both clock domains.
        let mut reports = experiments::par_sweep(&[(mb, block)], |&(mb, block)| {
            two_venus_report(
                mb * MB,
                block,
                true,
                buffer_cache::WritePolicy::WriteBehind,
                scale,
                42,
            )
        });
        let r = reports.pop().expect("one sweep point");
        println!(
            "fig8 point {mb} MB / {block} B blocks: idle {:.1}s, utilization {:.1}%, hit ratio {:.3}",
            r.idle_secs(),
            r.utilization() * 100.0,
            r.cache.hit_ratio()
        );
        println!(
            "obs: ctx switches {}, sync blocks {}, idle transitions {}, wheel inserts {}, \
             cascades {}, hinted probes {}, unhinted {}, disk seeks {}, sequential {}",
            r.obs.scheduler.context_switches,
            r.obs.scheduler.sync_blocks,
            r.obs.scheduler.idle_transitions,
            r.obs.timing_wheel.inserts,
            r.obs.timing_wheel.cascades,
            r.obs.cache.hinted_index_probes,
            r.obs.cache.unhinted_index_probes,
            r.obs.disks.seeks,
            r.obs.disks.sequential_accesses,
        );
        if let Some(path) = &json {
            write_json(path, &r);
        }
    } else {
        figures(scale, json.as_deref(), dfg_out.as_deref());
    }
    opts.finish();
}

/// The default run: Figures 6–8, the n+1 rule, and optionally the
/// directly-follows analysis of the figure traces.
fn figures(scale: Scale, json: Option<&str>, dfg_out: Option<&str>) {
    for (label, fig) in [("Figure 6", fig6(scale, 42)), ("Figure 7", fig7(scale, 42))] {
        println!(
            "{label}: 2 x venus, {} MB cache — idle {:.1}s, utilization {:.1}%, disk-traffic CV {:.2}",
            fig.cache_mb,
            fig.idle_secs,
            fig.utilization * 100.0,
            fig.disk_burstiness_cv
        );
        println!("{}", fig.plot);
    }
    let f8 = fig8(scale, 42);
    println!("{}", render_fig8(&f8));
    let np1 = nplus1(&[1, 2, 4], scale, 42);
    println!("{}", render_nplus1(&np1));
    if let Some(path) = json {
        write_json(path, &f8);
    }
    if let Some(path) = dfg_out {
        let store = experiments::TraceStore::global();
        let subjects = experiments::dfg::figure_subjects(42);
        let report = experiments::dfg::dfg_for_subjects(store, &subjects, scale)
            .unwrap_or_else(|e| {
                eprintln!("dfg analysis failed: {e}");
                std::process::exit(1);
            });
        let dot = experiments::dfg::write_dfg_outputs(&report, std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("writing dfg output failed: {e}");
                std::process::exit(1);
            });
        println!(
            "dfg: {} process graph(s), {} ops folded — wrote {path} and {}",
            report.processes.len(),
            report.total_events,
            dot.display()
        );
    }
}

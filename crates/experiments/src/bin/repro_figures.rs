//! Regenerate Figures 3 and 4 (application demand over CPU time).

use experiments::figures::{fig3, fig4};
use experiments::options::or_exit;
use experiments::{RunOptions, Scale, Scope};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let opts = or_exit(RunOptions::from_process(&mut args, Scope::Repro));
    let scale = if args.iter().any(|a| a == "--quick") { Scale(8) } else { Scale::FULL };
    for (label, fig) in [("Figure 3", fig3(scale, 42)), ("Figure 4", fig4(scale, 42))] {
        println!("{label}: {} — mean {:.1} MB/s, peak {:.1} MB/s, {} peaks (spacing CV {:.2})",
            fig.app, fig.mean_mb_per_s, fig.peak_mb_per_s, fig.cycles.peaks, fig.cycles.peak_spacing_cv);
        if let Some(p) = fig.cycles.period_bins {
            println!("dominant cycle period: {} s (autocorrelation {:.2})", p, fig.cycles.strength);
        }
        println!("{}", fig.plot);
    }
    opts.finish();
}

//! Run the design-choice ablations (read-ahead, write policy, block
//! size, quantum, disk queueing).

use experiments::ablations::{all_ablations, render_ablations};
use experiments::options::{or_exit, take_flag, write_json};
use experiments::{RunOptions, Scale, Scope};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let opts = or_exit(RunOptions::from_process(&mut args, Scope::Repro));
    let json = or_exit(take_flag(&mut args, "--json"));
    let scale = if args.iter().any(|a| a == "--quick") { Scale(8) } else { Scale::FULL };
    let report = all_ablations(scale, 42);
    println!("{}", render_ablations(&report));
    if let Some(path) = &json {
        write_json(path, &report);
    }
    opts.finish();
}

//! Check the §6 headline claims C1–C5.

use experiments::claims::{all_claims, render_claims};
use experiments::options::{or_exit, take_flag, write_json};
use experiments::{RunOptions, Scale, Scope};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let opts = or_exit(RunOptions::from_process(&mut args, Scope::Repro));
    let json = or_exit(take_flag(&mut args, "--json"));
    let scale = if args.iter().any(|a| a == "--quick") { Scale(8) } else { Scale::FULL };
    let report = all_claims(scale, 42);
    println!("{}", render_claims(&report));
    if let Some(path) = &json {
        write_json(path, &report);
    }
    opts.finish();
}

//! Regenerate Tables 1 and 2. `--quick` runs at 1/8 scale; `--json PATH`
//! additionally writes machine-readable results.

use experiments::extras::{
    amdahl_table, compression_table, render_amdahl, render_compression,
};
use experiments::tables::{render_table1, render_table2, table1};
use experiments::options::{or_exit, take_flag, write_json};
use experiments::{RunOptions, Scale, Scope};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let opts = or_exit(RunOptions::from_process(&mut args, Scope::Repro));
    let json = or_exit(take_flag(&mut args, "--json"));
    let scale = if args.iter().any(|a| a == "--quick") { Scale(8) } else { Scale::FULL };
    let result = table1(scale, 42);
    println!("{}", render_table1(&result));
    println!("{}", render_table2(&result));
    println!("{}", render_compression(&compression_table(scale, 42)));
    println!("{}", render_amdahl(&amdahl_table(scale, 42)));
    if let Some(path) = &json {
        write_json(path, &result);
    }
    opts.finish();
}

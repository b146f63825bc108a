//! Prints the reproduced tables and figures of the BTS paper.
//!
//! Usage:
//! ```text
//! cargo run --release -p bts-bench --bin figures -- all
//! cargo run --release -p bts-bench --bin figures -- fig6 table5
//! cargo run --release -p bts-bench --bin figures -- --json   # BENCH_FIGURES.json
//! ```
//!
//! Targets are `all` and the names in [`figures::FIGURES`]; an unknown one
//! lists them and exits with status 2. `--json` runs each
//! [`figures::workloads_json`] sweep once and writes `BENCH_FIGURES.json` to
//! the current directory (and stdout), so CI can diff the perf trajectory.

use bts_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for target in targets {
        let text = match target {
            "all" => figures::all(),
            "--json" | "json" => {
                let json = figures::workloads_json();
                let path = "BENCH_FIGURES.json";
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {path}");
                json
            }
            other => match figures::FIGURES.iter().find(|(name, _)| *name == other) {
                Some((_, figure)) => figure(),
                None => {
                    let names: Vec<&str> = figures::FIGURES.iter().map(|(name, _)| *name).collect();
                    eprintln!(
                        "unknown target '{other}'; expected one of: all {} --json",
                        names.join(" ")
                    );
                    std::process::exit(2);
                }
            },
        };
        println!("{text}");
    }
}

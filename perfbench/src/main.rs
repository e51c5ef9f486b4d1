//! Command-line entry point; see the library docs and `perfbench/README.md`.

use perfbench::client::Launcher;
use perfbench::{environment_json, result_json, run, Args, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

/// Removes the per-run scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_sim|pipeline_fanout|pipeline_durable|\
                 stream_fanout|stream_durable> --seed N --seconds S --trace 0|1 \
                 [--server-bin PATH] [--corrupt-reference]"
            );
            std::process::exit(2);
        }
    };
    let launcher = match &args.server_bin {
        Some(bin) => Launcher::Binary(bin.clone()),
        None if !args.workload.starts_with("stream") => Launcher::InProcess,
        None => {
            eprintln!("perfbench: streaming workloads need --server-bin");
            std::process::exit(2);
        }
    };
    // Relative paths keep the Unix socket path short and the run inside
    // the directory it was started from.
    let work = Scratch(Path::new(".bench_run").join(std::process::id().to_string()));
    let out = Path::new(".bench_out");
    for dir in [work.0.as_path(), out] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let report = match run(&args, &launcher, &work.0, out) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            drop(work);
            std::process::exit(1);
        }
    };
    if !report.table.is_empty() {
        println!("{}", report.table);
    }
    if report.correct {
        let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in units {
            if let Some(value) = report.metrics.get(name) {
                println!("metric {name} = {value} {unit}");
            }
        }
    }
    let env = environment_json(&args, &report);
    println!("{env}");
    let result = result_json(&report, args.trace);
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&file, format!("{env}\n{result}\n"));
    if let Some(e) = &report.error {
        eprintln!("perfbench: output check failed: {e}");
    }
    println!("{result}");
    drop(work);
    std::process::exit(if report.correct { 0 } else { 1 });
}

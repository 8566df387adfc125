//! Runs every experiment binary in sequence — the "full reproduction run"
//! referred to by `EXPERIMENTS.md`. Flags (`--quick`, `--paper`,
//! `--trace <path>`) are forwarded to each experiment; any other flag is
//! rejected up front.

use std::path::PathBuf;
use std::process::Command;

/// The experiment binaries in the paper's order.
const BINARIES: [&str; 7] = [
    "validate_analysis",
    "fig2",
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
];

/// Path of a sibling binary in the same target directory as this executable,
/// if it exists there (the common case when built with `cargo build`).
fn sibling(binary: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join(binary);
    candidate.exists().then_some(candidate)
}

fn main() {
    let forward: Vec<String> = std::env::args().skip(1).collect();
    // Reject what no experiment accepts before running any of them.
    let _ = chronos_bench::Scale::from_args();
    let mut failures = 0u32;
    for binary in BINARIES {
        println!("\n################ running {binary} ################");
        let mut command = match sibling(binary) {
            Some(path) => {
                let mut c = Command::new(path);
                c.args(&forward);
                c
            }
            None => {
                let mut c = Command::new("cargo");
                c.args([
                    "run",
                    "--quiet",
                    "-p",
                    "chronos-bench",
                    "--bin",
                    binary,
                    "--",
                ]);
                c.args(&forward);
                c
            }
        };
        match command.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{binary} exited with {status}");
                failures += 1;
            }
            Err(err) => {
                eprintln!("failed to launch {binary}: {err}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!("\nall experiments completed");
}

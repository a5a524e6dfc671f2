//! `muaa-lint` CLI: `cargo run -p muaa-lint [-- <workspace-root>]` (or
//! the `cargo lint` alias from `.cargo/config.toml`).
//!
//! Prints one `file:line:col: [Dnn] message` diagnostic per violation
//! (the format `.github/muaa-lint-problem-matcher.json` annotates) and
//! a summary line. Exits 0 when the workspace passes, 1 on violations,
//! 2 on usage / I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("muaa-lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match muaa_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "muaa-lint: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
        [path] if !path.starts_with('-') => PathBuf::from(path),
        _ => {
            eprintln!("usage: muaa-lint [workspace-root]");
            return ExitCode::from(2);
        }
    };
    match muaa_lint::run(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("muaa-lint: {e}");
            ExitCode::from(2)
        }
    }
}

//! `muaa-lint` CLI: `cargo run -p muaa-lint [-- [--format=json] [--graph]
//! [--audit] [<workspace-root>]]` (or the `cargo lint` alias from
//! `.cargo/config.toml`).
//!
//! Exits 0 when the workspace passes, 1 on violations, 2 on usage /
//! I/O errors. `--format=json` emits one JSON object per violation plus
//! a summary object — what CI archives and tooling parses; the default
//! text format is what the GitHub problem matcher annotates;
//! `--format=sarif` emits a SARIF 2.1.0 document for GitHub code
//! scanning (CI uploads it via `codeql-action/upload-sarif`). `--graph`
//! prints the workspace call graph as GraphViz DOT instead of
//! diagnostics; `--audit` prints the unsafe-reachability audit (which
//! public entry points reach each unsafe site). Both still exit 1 on
//! violations so CI can archive the artifacts and gate in one step.

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut graph = false;
    let mut audit = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--format=json" => format = Format::Json,
            "--format=sarif" => format = Format::Sarif,
            "--format=text" => format = Format::Text,
            "--graph" => graph = true,
            "--audit" => audit = true,
            a if a.starts_with("--") => {
                eprintln!(
                    "usage: muaa-lint [--format=json|sarif|text] [--graph] [--audit] [workspace-root]"
                );
                return ExitCode::from(2);
            }
            _ => paths.push(arg),
        }
    }
    let root = match paths.as_slice() {
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
        [path] => PathBuf::from(path),
        _ => {
            eprintln!(
                "usage: muaa-lint [--format=json|sarif|text] [--graph] [--audit] [workspace-root]"
            );
            return ExitCode::from(2);
        }
    };
    match muaa_lint::run(&root) {
        Ok(report) => {
            if graph {
                print!("{}", report.dot);
            } else if audit {
                print!("{}", report.audit);
            } else {
                match format {
                    Format::Json => print!("{}", report.render_json()),
                    Format::Sarif => print!("{}", report.render_sarif()),
                    Format::Text => print!("{}", report.render()),
                }
            }
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

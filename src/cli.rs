//! The `muaa` command-line tool: generate, inspect and solve MUAA
//! instances from the shell.
//!
//! ```text
//! muaa generate --kind synthetic --customers 1000 --vendors 50 --out city.tsv
//! muaa info city.tsv
//! muaa solve city.tsv --solver recon
//! muaa solve city.tsv --solver online --g 7.4
//! muaa bound city.tsv
//! ```
//!
//! The logic lives here (unit-testable); `main.rs` only parses
//! `std::env::args`.

use crate::prelude::*;
use muaa_algorithms::{upper_bounds, BatchedRecon};
use muaa_core::io;
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate an instance to a file.
    Generate {
        /// `synthetic` or `foursquare`.
        kind: String,
        /// Number of customers / check-ins.
        customers: usize,
        /// Number of vendors / venues.
        vendors: usize,
        /// RNG seed.
        seed: u64,
        /// Output path (`-` = stdout).
        out: String,
    },
    /// Print instance statistics.
    Info {
        /// Instance path.
        path: String,
    },
    /// Solve an instance and print the outcome.
    Solve {
        /// Instance path.
        path: String,
        /// Solver name: recon | greedy | naive-greedy | random |
        /// nearest | online | `batched:<windows>` | exact.
        solver: String,
        /// Seed for randomized solvers.
        seed: u64,
    },
    /// Print certified upper bounds.
    Bound {
        /// Instance path.
        path: String,
    },
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments, with a usage hint.
    Usage(String),
    /// Underlying failure (I/O, parse, …).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

/// Parse an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| CliError::Usage(USAGE.into()))?;
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .map(|v| v.to_string());
            if value.is_some() {
                i += 1;
            }
            flags.push((name.to_string(), value));
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    let flag = |name: &str| {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.clone())
    };
    let parse_num = |name: &str, default: usize| -> Result<usize, CliError> {
        match flag(name) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} wants a number"))),
            None => Ok(default),
        }
    };
    let parse_seed = || -> Result<u64, CliError> {
        match flag("seed") {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage("--seed wants a number".into())),
            None => Ok(42),
        }
    };

    match cmd.as_str() {
        "generate" => Ok(Command::Generate {
            kind: flag("kind").unwrap_or_else(|| "synthetic".into()),
            customers: parse_num("customers", 1_000)?,
            vendors: parse_num("vendors", 50)?,
            seed: parse_seed()?,
            out: flag("out").unwrap_or_else(|| "-".into()),
        }),
        "info" => Ok(Command::Info {
            path: positional
                .first()
                .cloned()
                .ok_or_else(|| CliError::Usage("info <instance.tsv>".into()))?,
        }),
        "solve" => Ok(Command::Solve {
            path: positional
                .first()
                .cloned()
                .ok_or_else(|| CliError::Usage("solve <instance.tsv>".into()))?,
            solver: flag("solver").unwrap_or_else(|| "recon".into()),
            seed: parse_seed()?,
        }),
        "bound" => Ok(Command::Bound {
            path: positional
                .first()
                .cloned()
                .ok_or_else(|| CliError::Usage("bound <instance.tsv>".into()))?,
        }),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    }
}

/// Usage string.
pub const USAGE: &str = "\
usage: muaa <command> [options]
  generate --kind synthetic|foursquare [--customers N] [--vendors N] [--seed N] [--out FILE]
  info  <instance.tsv>
  solve <instance.tsv> [--solver recon|greedy|naive-greedy|random|nearest|online|batched:<k>|exact] [--seed N]
  bound <instance.tsv>";

/// Execute a command, returning the text to print.
pub fn execute(command: Command) -> Result<String, CliError> {
    match command {
        Command::Generate {
            kind,
            customers,
            vendors,
            seed,
            out,
        } => {
            let instance = match kind.as_str() {
                "synthetic" => generate_synthetic(&SyntheticConfig {
                    customers,
                    vendors,
                    seed,
                    ..Default::default()
                }),
                "foursquare" => {
                    FoursquareSim::generate(&FoursquareConfig {
                        checkins: customers,
                        venues: vendors,
                        users: (customers / 20).max(1),
                        seed,
                        ..Default::default()
                    })
                    .instance
                }
                other => return Err(CliError::Usage(format!("unknown kind {other:?}"))),
            };
            let text = io::to_string(&instance);
            if out == "-" {
                Ok(text)
            } else {
                std::fs::write(&out, &text)
                    .map_err(|e| CliError::Failed(format!("writing {out}: {e}")))?;
                Ok(format!(
                    "wrote {} customers / {} vendors to {out}\n",
                    customers, vendors
                ))
            }
        }
        Command::Info { path } => {
            let instance = load(&path)?;
            let stats = instance.stats();
            let mut s = String::new();
            let _ = writeln!(s, "instance: {path}");
            let _ = writeln!(s, "  customers      : {}", stats.customers);
            let _ = writeln!(s, "  vendors        : {}", stats.vendors);
            let _ = writeln!(s, "  ad types       : {}", stats.ad_types);
            let _ = writeln!(s, "  tag universe   : {}", stats.tag_universe);
            let _ = writeln!(s, "  total budget   : {}", stats.total_budget);
            let _ = writeln!(s, "  total capacity : {}", stats.total_capacity);
            let _ = writeln!(s, "  mean radius    : {:.4}", stats.mean_radius);
            Ok(s)
        }
        Command::Solve { path, solver, seed } => {
            let instance = load(&path)?;
            let model = PearsonUtility::uniform(instance.tag_universe());
            let ctx = SolverContext::indexed(&instance, &model);
            let outcome = run_solver(&ctx, &solver, seed)?;
            let mut s = String::new();
            let _ = writeln!(s, "solver    : {}", outcome.solver);
            let _ = writeln!(s, "utility   : {:.6}", outcome.total_utility);
            let _ = writeln!(s, "ads       : {}", outcome.assignments.len());
            let _ = writeln!(s, "spend     : {}", outcome.assignments.total_spend());
            let _ = writeln!(s, "elapsed   : {:?}", outcome.elapsed);
            Ok(s)
        }
        Command::Bound { path } => {
            let instance = load(&path)?;
            let model = PearsonUtility::uniform(instance.tag_universe());
            let ctx = SolverContext::indexed(&instance, &model);
            let bounds = upper_bounds(&ctx);
            let mut s = String::new();
            let _ = writeln!(s, "vendor relaxation   : {:.6}", bounds.vendor_relaxation);
            let _ = writeln!(s, "customer relaxation : {:.6}", bounds.customer_relaxation);
            let _ = writeln!(s, "best upper bound    : {:.6}", bounds.best());
            Ok(s)
        }
    }
}

fn load(path: &str) -> Result<muaa_core::ProblemInstance, CliError> {
    let data = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("reading {path}: {e}")))?;
    io::from_str(&data).map_err(|e| CliError::Failed(format!("parsing {path}: {e}")))
}

fn run_solver(ctx: &SolverContext<'_>, solver: &str, seed: u64) -> Result<SolveOutcome, CliError> {
    Ok(match solver {
        "recon" => Recon::new().with_seed(seed).run(ctx),
        "greedy" => Greedy.run(ctx),
        "naive-greedy" => NaiveGreedy.run(ctx),
        "random" => RandomAssign::seeded(seed).run(ctx),
        "nearest" => NearestAssign.run(ctx),
        "exact" => ExactBnB::new().run(ctx),
        "online" => {
            let threshold = match estimate_gamma_bounds(ctx, 1_000, seed) {
                Some(b) => ThresholdFn::adaptive(b.gamma_min, b.g),
                None => ThresholdFn::Disabled,
            };
            let mut s = OAfa::new(threshold);
            run_online(&mut s, ctx)
        }
        other => {
            if let Some(k) = other.strip_prefix("batched:") {
                let windows: usize = k.parse().map_err(|_| {
                    CliError::Usage(format!("batched:<k> wants a number, got {k:?}"))
                })?;
                if windows == 0 {
                    return Err(CliError::Usage("batched:<k> needs k ≥ 1".into()));
                }
                BatchedRecon::new(windows).with_seed(seed).run(ctx)
            } else {
                return Err(CliError::Usage(format!(
                    "unknown solver {other:?}\n{USAGE}"
                )));
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate_defaults_and_flags() {
        let cmd = parse(&argv("generate")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                kind: "synthetic".into(),
                customers: 1_000,
                vendors: 50,
                seed: 42,
                out: "-".into()
            }
        );
        let cmd = parse(&argv(
            "generate --kind foursquare --customers 10 --vendors 3 --seed 7 --out x.tsv",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                kind: "foursquare".into(),
                customers: 10,
                vendors: 3,
                seed: 7,
                out: "x.tsv".into()
            }
        );
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(matches!(parse(&argv("")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&argv("solve")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("generate --customers nope")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_info_solve_bound_pipeline() {
        let dir = std::env::temp_dir().join(format!("muaa_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.tsv");
        let path_s = path.to_str().unwrap().to_string();

        let out = execute(Command::Generate {
            kind: "synthetic".into(),
            customers: 120,
            vendors: 8,
            seed: 3,
            out: path_s.clone(),
        })
        .unwrap();
        assert!(out.contains("wrote"));

        let info = execute(Command::Info {
            path: path_s.clone(),
        })
        .unwrap();
        assert!(info.contains("customers      : 120"));
        assert!(info.contains("vendors        : 8"));

        for solver in [
            "recon",
            "greedy",
            "random",
            "nearest",
            "online",
            "batched:4",
        ] {
            let out = execute(Command::Solve {
                path: path_s.clone(),
                solver: solver.into(),
                seed: 5,
            })
            .unwrap();
            assert!(out.contains("utility"), "{solver}: {out}");
        }

        let bound = execute(Command::Bound {
            path: path_s.clone(),
        })
        .unwrap();
        assert!(bound.contains("best upper bound"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_to_stdout_emits_instance_text() {
        let out = execute(Command::Generate {
            kind: "synthetic".into(),
            customers: 5,
            vendors: 2,
            seed: 1,
            out: "-".into(),
        })
        .unwrap();
        assert!(out.starts_with(io::MAGIC));
        // And it parses back.
        assert_eq!(io::from_str(&out).unwrap().num_customers(), 5);
    }

    #[test]
    fn solve_unknown_solver_is_a_usage_error() {
        let out = execute(Command::Generate {
            kind: "synthetic".into(),
            customers: 5,
            vendors: 2,
            seed: 1,
            out: "-".into(),
        })
        .unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("muaa_cli_unknown_{}.tsv", std::process::id()));
        std::fs::write(&path, out).unwrap();
        let err = execute(Command::Solve {
            path: path.to_str().unwrap().into(),
            solver: "simulated-annealing".into(),
            seed: 0,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_reports_failed() {
        let err = execute(Command::Info {
            path: "/nonexistent/instance.tsv".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }
}

//! The `muaa-experiments` binary: regenerate every table and figure of
//! the paper's evaluation, the ratio studies and the ablations.
//!
//! ```text
//! muaa-experiments <command> [--quick | --paper] [--out DIR] [--seed N]
//!
//! commands:
//!   fig3 fig4 fig5 fig6    real-sim sweeps (budget, radius, capacity, view prob)
//!   fig7 fig8              synthetic scalability sweeps (m, n)
//!   example1               the paper's worked example + exact optimum
//!   ratios                 empirical approximation/competitive ratios vs EXACT
//!   latency                ONLINE per-customer response latency vs vendor count
//!   ablate-mckp            RECON backend ablation
//!   ablate-threshold       O-AFA threshold-policy ablation
//!   ablate-g               O-AFA g-sensitivity ablation
//!   ablate-batching        BATCHED-RECON window-count ablation
//!   ablate-adtypes         ad-type-count ablation
//!   bounds                 certified quality against upper bounds
//!   tagselect              vendor-side broadcast tag selection study
//!   tables                 Tables I and IV
//!   all                    everything above
//! ```

use muaa_experiments::figures::{
    ablations, bounds_study, example1, latency, ratios, real_sweeps, settings, synthetic_sweeps,
    tag_select_study,
};
use muaa_experiments::{Scale, Table};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    out_dir: Option<PathBuf>,
    seed: u64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut opts = Options {
        scale: Scale::default(),
        out_dir: None,
        seed: 2019,
    };

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.scale = Scale::quick(),
            "--paper" => opts.scale = Scale::paper(),
            "--out" => match iter.next() {
                Some(dir) => opts.out_dir = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => opts.seed = s,
                None => return usage("--seed needs an integer"),
            },
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(command) = command else {
        return usage("missing command");
    };

    if !run_command(&command, &opts) {
        return usage(&format!("unknown command {command}"));
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: muaa-experiments <fig3|fig4|fig5|fig6|fig7|fig8|example1|ratios|latency|ablate-mckp|ablate-threshold|ablate-g|ablate-batching|ablate-adtypes|bounds|tagselect|tables|all> [--quick|--paper] [--out DIR] [--seed N]"
    );
    ExitCode::from(2)
}

fn run_command(command: &str, opts: &Options) -> bool {
    match command {
        "fig3" => emit_pair(real_sweeps::fig3_budget(&opts.scale, opts.seed), opts),
        "fig4" => emit_pair(real_sweeps::fig4_radius(&opts.scale, opts.seed), opts),
        "fig5" => emit_pair(real_sweeps::fig5_capacity(&opts.scale, opts.seed), opts),
        "fig6" => emit_pair(real_sweeps::fig6_probability(&opts.scale, opts.seed), opts),
        "fig7" => emit_pair(
            synthetic_sweeps::fig7_customers(&opts.scale, opts.seed),
            opts,
        ),
        "fig8" => emit_pair(synthetic_sweeps::fig8_vendors(&opts.scale, opts.seed), opts),
        "example1" => {
            let report = example1::run();
            println!("# Example 1 (paper Fig. 1 / Tables I-II)");
            println!(
                "paper 'possible solution' utility: {}",
                example1::PAPER_POSSIBLE_SOLUTION
            );
            println!(
                "paper claimed optimum:             {}",
                example1::PAPER_CLAIMED_OPTIMUM
            );
            println!("exact optimum (ExactBnB):          {:.6}", report.exact);
            println!("RECON:                             {:.6}", report.recon);
            println!("GREEDY:                            {:.6}", report.greedy);
            println!(
                "optimal assignment: {}",
                report.optimal_assignments.join(", ")
            );
            println!(
                "note: the exact optimum exceeds the paper's claim; see DESIGN.md §6 (erratum)."
            );
        }
        "ratios" => {
            let report = ratios::run(opts.scale.ratio_trials, opts.seed);
            emit(ratios::to_table(&report), opts);
        }
        "latency" => {
            // The paper's claim covers up to 20K vendors; --quick stops
            // at 2K, the default at 20K.
            let sweep: &[usize] = if opts.scale == Scale::quick() {
                &[200, 1_000, 2_000]
            } else {
                &[1_000, 5_000, 10_000, 20_000]
            };
            emit(latency::run(5_000, sweep, opts.seed), opts);
        }
        "ablate-mckp" => emit(ablations::ablate_mckp(2_000, 100, opts.seed), opts),
        "ablate-threshold" => emit(ablations::ablate_threshold(4_000, 50, opts.seed), opts),
        "ablate-g" => emit(ablations::ablate_g(4_000, 50, opts.seed), opts),
        "ablate-batching" => emit(ablations::ablate_batching(5_000, 60, opts.seed), opts),
        "ablate-adtypes" => emit(ablations::ablate_adtypes(4_000, 60, opts.seed), opts),
        "bounds" => emit(bounds_study::run(5_000, 250, opts.seed), opts),
        "tagselect" => {
            // Deliberately small: the outer loop re-solves
            // O(vendors · k · pool) times per k.
            let (checkins, venues) = if opts.scale == Scale::quick() {
                (240, 16)
            } else {
                (600, 30)
            };
            emit(tag_select_study::run(checkins, venues, opts.seed), opts);
        }
        "tables" => {
            emit(settings::table1(), opts);
            emit(settings::table4(), opts);
        }
        "all" => {
            for cmd in [
                "tables",
                "example1",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "ratios",
                "ablate-mckp",
                "ablate-threshold",
                "ablate-g",
                "ablate-batching",
                "ablate-adtypes",
                "bounds",
                "tagselect",
                "latency",
            ] {
                eprintln!(">>> {cmd}");
                // A misspelt entry is a bug in this list, not user input.
                assert!(run_command(cmd, opts), "`all` lists unknown command {cmd}");
            }
        }
        _ => return false,
    }
    true
}

fn emit_pair((a, b): (Table, Table), opts: &Options) {
    emit(a, opts);
    emit(b, opts);
}

fn emit(table: Table, opts: &Options) {
    println!("{}", table.render());
    if let Some(dir) = &opts.out_dir {
        match table.write_csv(dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write CSV: {e}"),
        }
    }
}

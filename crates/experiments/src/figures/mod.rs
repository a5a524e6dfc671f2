//! One runner per paper table/figure, plus ratio studies and
//! ablations. See `DESIGN.md` §4 for the experiment index.

pub mod ablations;
pub mod bounds_study;
pub mod example1;
pub mod latency;
pub mod ratios;
pub mod real_sweeps;
pub mod settings;
pub mod synthetic_sweeps;
pub mod tag_select_study;

use crate::harness::{run_competitors, COMPETITORS};
use crate::report::Table;
use muaa_core::{ProblemInstance, UtilityModel};

/// Build the paired (utility, time) tables of one figure from per-sweep
/// runs. `points` is a list of (row label, instance, model).
pub(crate) fn sweep_tables(
    figure: &str,
    param: &str,
    dataset: &str,
    seed: u64,
    points: impl IntoIterator<Item = (String, ProblemInstance, Box<dyn UtilityModel>)>,
) -> (Table, Table) {
    let labels: Vec<String> = COMPETITORS.map(String::from).to_vec();
    let mut utility = Table::new(
        format!("Fig {figure}(a): total utility vs {param} ({dataset})"),
        param,
        labels.clone(),
    );
    let mut time = Table::new(
        format!("Fig {figure}(b): running time (s) vs {param} ({dataset})"),
        param,
        labels,
    );
    for (label, instance, model) in points {
        let results = run_competitors(&instance, model.as_ref(), seed);
        let utilities = results.iter().map(|r| r.total_utility).collect();
        let seconds = results.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        utility.push_row(label.clone(), utilities);
        time.push_row(label, seconds);
    }
    (utility, time)
}

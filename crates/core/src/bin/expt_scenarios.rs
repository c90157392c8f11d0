//! Demonstration Scenarios (§4): parity-check design & testing (E4),
//! simulation-method benchmarking on GHZ / equal superposition (E5), and the
//! educational GHZ state-evolution walk-through (E6).
//!
//! Usage: expt_scenarios [--max-n N]

use qymera_core::benchsuite::experiments::parity_experiment;
use qymera_core::benchsuite::report::{pivot_memory_table, pivot_time_table, text_table};
use qymera_core::benchsuite::experiments::scenario_benchmark;
use qymera_sim::SimOptions;
use qymera_translate::SqlSimulator;

fn main() {
    let max_n: usize = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--max-n")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(12);

    println!("=== E4: Scenario 1 — parity check across backends ===\n");
    for input in [vec![true, false, true, true], vec![false, true, false, false]] {
        print!("{}", parity_experiment(&input).render());
        println!();
    }

    println!("=== E5: Scenario 2 — method benchmarking (GHZ, equal superposition) ===\n");
    let sizes: Vec<usize> = (4..=max_n).step_by(2).collect();
    let records = scenario_benchmark(&sizes, SimOptions::default());
    println!("{}", text_table(&records));
    for workload in ["ghz", "equal_superposition"] {
        let subset: Vec<_> =
            records.iter().filter(|r| r.workload == workload).cloned().collect();
        println!("wall time (ms), workload = {workload}:");
        println!("{}", pivot_time_table(&subset));
        println!("peak state memory, workload = {workload}:");
        println!("{}", pivot_memory_table(&subset));
    }

    println!("=== E6: Scenario 3 — educational GHZ state evolution via SQL ===\n");
    let sim = SqlSimulator::paper_default();
    let circuit = qymera_circuit::library::ghz(3);
    println!("generated SQL:\n{}\n", sim.generated_sql(&circuit));
    let states = sim.run_trace(&circuit).expect("trace").states;
    for (k, state) in states.iter().enumerate() {
        println!("|psi>_{k}:");
        for a in state {
            println!("  s = {:>3}   amplitude = {:+.4} {:+.4}i", a.s, a.amp.re, a.amp.im);
        }
    }
}

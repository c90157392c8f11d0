//! Demonstration Scenario 3 — educational exploration of entanglement and
//! superposition. Walks through the GHZ circuit gate by gate, showing the
//! relational state table after every step (the paper's Fig. 2 tables
//! T0 → T3) and the final measurement statistics.
//!
//! ```sh
//! cargo run --example educational_ghz
//! ```

use qymera::circuit::library;
use qymera::translate::{measure, SqlSimulator};
use qymera::sqldb::Database;

fn main() {
    let circuit = library::ghz(3);
    let sim = SqlSimulator::paper_default();

    println!("The 3-qubit GHZ circuit of the paper's Fig. 2:");
    println!("  H(q0) — put qubit 0 into superposition");
    println!("  CX(q0→q1), CX(q1→q2) — spread it into entanglement\n");

    println!("Generated SQL (one CTE per gate):\n{}\n", sim.generated_sql(&circuit));

    let states = sim.run_trace(&circuit).expect("trace runs").states;
    let labels = ["|ψ⟩₀ = |000⟩", "|ψ⟩₁ after H(q0)", "|ψ⟩₂ after CX(q0→q1)",
                  "|ψ⟩₃ after CX(q1→q2)"];
    for (state, label) in states.iter().zip(labels) {
        println!("{label} — state table T(s, r, i):");
        println!("  {:>3}  {:>10}  {:>10}", "s", "r", "i");
        for a in state {
            println!("  {:>3}  {:>10.6}  {:>10.6}", a.s, a.amp.re, a.amp.im);
        }
        println!();
    }

    println!("Interpretation: only |000⟩ and |111⟩ survive — measuring any one");
    println!("qubit instantly determines the other two. That is entanglement.\n");

    // Measurement statistics straight from SQL (Output Layer).
    let mut db = Database::new();
    db.execute("CREATE TABLE T (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let a = std::f64::consts::FRAC_1_SQRT_2;
    db.execute(&format!("INSERT INTO T VALUES (0, {a}, 0.0), (7, {a}, 0.0)")).unwrap();
    for q in 0..3 {
        let rs = db.execute(&measure::marginal_query("T", q)).unwrap();
        println!("marginal of qubit {q}:");
        print!("{}", rs.to_table_string());
    }
    let rs = db.execute(&measure::norm_query("T")).unwrap();
    println!("total probability (must be 1): {}", rs.scalar().unwrap());
}

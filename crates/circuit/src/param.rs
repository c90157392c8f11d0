//! Parameterized circuit families (§3.1 "Parameterized Circuit Families" and
//! §3.3 "Parameterized Simulations").
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles may be
//! symbolic [`ParamExpr`]s; [`ParamCircuit::bind`] produces a concrete
//! [`QuantumCircuit`]. [`sweep`] enumerates bindings over a grid, which is
//! what the benchmark suite uses to "automate simulation across the
//! parameter space".

use std::collections::HashMap;

use crate::circuit::QuantumCircuit;
use crate::gate::{Gate, GateKind};

/// A (possibly symbolic) real parameter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamExpr {
    /// A literal value.
    Const(f64),
    /// A named parameter, e.g. `"theta"`.
    Sym(String),
    /// `coeff * sym + offset` — enough structure for typical ansätze.
    Affine { sym: String, coeff: f64, offset: f64 },
}

impl ParamExpr {
    pub fn sym(name: &str) -> Self {
        ParamExpr::Sym(name.to_string())
    }

    /// Evaluate under a binding; errors on unbound symbols.
    pub fn eval(&self, binding: &HashMap<String, f64>) -> Result<f64, String> {
        match self {
            ParamExpr::Const(v) => Ok(*v),
            ParamExpr::Sym(s) => binding
                .get(s)
                .copied()
                .ok_or_else(|| format!("unbound parameter `{s}`")),
            ParamExpr::Affine { sym, coeff, offset } => binding
                .get(sym)
                .map(|v| coeff * v + offset)
                .ok_or_else(|| format!("unbound parameter `{sym}`")),
        }
    }

    /// Symbol name if symbolic.
    pub fn symbol(&self) -> Option<&str> {
        match self {
            ParamExpr::Const(_) => None,
            ParamExpr::Sym(s) => Some(s),
            ParamExpr::Affine { sym, .. } => Some(sym),
        }
    }
}

impl From<f64> for ParamExpr {
    fn from(v: f64) -> Self {
        ParamExpr::Const(v)
    }
}

/// A gate whose parameters may be symbolic.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGate {
    pub kind: GateKind,
    pub qubits: Vec<usize>,
    pub params: Vec<ParamExpr>,
}

/// A circuit template over named parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamCircuit {
    pub name: String,
    pub num_qubits: usize,
    pub gates: Vec<ParamGate>,
}

impl ParamCircuit {
    pub fn new(num_qubits: usize, name: &str) -> Self {
        ParamCircuit { name: name.to_string(), num_qubits, gates: Vec::new() }
    }

    pub fn push(&mut self, kind: GateKind, qubits: Vec<usize>, params: Vec<ParamExpr>) {
        self.gates.push(ParamGate { kind, qubits, params });
    }

    /// All distinct symbols, in first-appearance order.
    pub fn symbols(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for g in &self.gates {
            for p in &g.params {
                if let Some(s) = p.symbol() {
                    if !out.iter().any(|x| x == s) {
                        out.push(s.to_string());
                    }
                }
            }
        }
        out
    }

    /// Bind all symbols to produce a concrete circuit.
    pub fn bind(&self, binding: &HashMap<String, f64>) -> Result<QuantumCircuit, String> {
        let mut c = QuantumCircuit::with_name(self.num_qubits, &self.name);
        for g in &self.gates {
            let params = g
                .params
                .iter()
                .map(|p| p.eval(binding))
                .collect::<Result<Vec<_>, _>>()?;
            c.push(Gate::new(g.kind, g.qubits.clone(), params))?;
        }
        Ok(c)
    }

    /// Bind from a positional value list in [`Self::symbols`] order.
    pub fn bind_values(&self, values: &[f64]) -> Result<QuantumCircuit, String> {
        let symbols = self.symbols();
        if symbols.len() != values.len() {
            return Err(format!(
                "expected {} parameter values, got {}",
                symbols.len(),
                values.len()
            ));
        }
        let binding = symbols.into_iter().zip(values.iter().copied()).collect();
        self.bind(&binding)
    }
}

/// A grid sweep over one named parameter: `(name, values)`.
pub type SweepAxis = (String, Vec<f64>);

/// Enumerate the Cartesian product of sweep axes as complete bindings.
pub fn sweep(axes: &[SweepAxis]) -> Vec<HashMap<String, f64>> {
    let mut bindings = vec![HashMap::new()];
    for (name, values) in axes {
        let mut next = Vec::with_capacity(bindings.len() * values.len());
        for b in &bindings {
            for &v in values {
                let mut nb = b.clone();
                nb.insert(name.clone(), v);
                next.push(nb);
            }
        }
        bindings = next;
    }
    bindings
}

/// Evenly spaced values over `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotation_family() -> ParamCircuit {
        let mut pc = ParamCircuit::new(2, "rot");
        pc.push(GateKind::Ry, vec![0], vec![ParamExpr::sym("theta")]);
        pc.push(GateKind::Cx, vec![0, 1], vec![]);
        pc.push(
            GateKind::Rz,
            vec![1],
            vec![ParamExpr::Affine { sym: "theta".into(), coeff: 2.0, offset: 0.5 }],
        );
        pc.push(GateKind::Rx, vec![0], vec![ParamExpr::sym("phi")]);
        pc
    }

    #[test]
    fn symbols_in_order() {
        assert_eq!(rotation_family().symbols(), vec!["theta", "phi"]);
    }

    #[test]
    fn bind_produces_concrete_circuit() {
        let pc = rotation_family();
        let mut b = HashMap::new();
        b.insert("theta".to_string(), 0.3);
        b.insert("phi".to_string(), 0.7);
        let c = pc.bind(&b).unwrap();
        assert_eq!(c.gates()[0].params, vec![0.3]);
        assert_eq!(c.gates()[2].params, vec![2.0 * 0.3 + 0.5]);
        assert_eq!(c.gates()[3].params, vec![0.7]);
    }

    #[test]
    fn unbound_symbol_is_error() {
        let pc = rotation_family();
        let mut b = HashMap::new();
        b.insert("theta".to_string(), 0.3);
        assert!(pc.bind(&b).unwrap_err().contains("phi"));
    }

    #[test]
    fn bind_values_positional() {
        let pc = rotation_family();
        let c = pc.bind_values(&[0.1, 0.9]).unwrap();
        assert_eq!(c.gates()[3].params, vec![0.9]);
        assert!(pc.bind_values(&[0.1]).is_err());
    }

    #[test]
    fn sweep_cartesian_product() {
        let axes = vec![
            ("a".to_string(), vec![1.0, 2.0]),
            ("b".to_string(), vec![10.0, 20.0, 30.0]),
        ];
        let grid = sweep(&axes);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().any(|b| b["a"] == 2.0 && b["b"] == 30.0));
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[4], 1.0);
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }
}

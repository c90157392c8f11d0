//! JSON circuit file format — the paper's "File Upload" input path (§3.1:
//! *"Quantum researchers can upload circuits in standardized formats, such
//! as JSON"*).
//!
//! The format is deliberately explicit and version-tagged:
//!
//! ```json
//! {
//!   "format": "qymera-circuit-v1",
//!   "name": "ghz_3",
//!   "num_qubits": 3,
//!   "gates": [
//!     {"gate": "h",  "qubits": [0]},
//!     {"gate": "cx", "qubits": [0, 1]},
//!     {"gate": "rz", "qubits": [2], "params": [0.5]}
//!   ]
//! }
//! ```

use serde::{find, Number, Value};

use crate::circuit::QuantumCircuit;
use crate::gate::{Gate, GateKind};

pub const FORMAT_TAG: &str = "qymera-circuit-v1";

/// Serialize a circuit to the JSON file format (pretty-printed).
pub fn to_json(circuit: &QuantumCircuit) -> String {
    let field = |key: &str, value: Value| (key.to_string(), value);
    let index = |n: usize| Value::Num(Number::UInt(n as u64));
    let gates = circuit.gates().iter().map(|g| {
        let mut entry = vec![
            field("gate", Value::Str(g.kind.name().to_string())),
            field("qubits", Value::Array(g.qubits.iter().map(|&q| index(q)).collect())),
        ];
        if !g.params.is_empty() {
            let params = g.params.iter().map(|&p| Value::Num(Number::Float(p)));
            entry.push(field("params", Value::Array(params.collect())));
        }
        Value::Object(entry)
    });
    serde_json::to_string_pretty(&Value::Object(vec![
        field("format", Value::Str(FORMAT_TAG.to_string())),
        field("name", Value::Str(circuit.name.clone())),
        field("num_qubits", index(circuit.num_qubits)),
        field("gates", Value::Array(gates.collect())),
    ]))
}

/// Parse a circuit from the JSON file format, with full validation. A
/// malformed file is an error that names the field, e.g.
/// `gates[2].qubits: expected array, found string`.
pub fn from_json(text: &str) -> Result<QuantumCircuit, String> {
    let invalid = |e: String| format!("invalid circuit JSON: {e}");
    let at = |key: &'static str| move |e: String| invalid(format!("{key}: {e}"));
    let value = serde_json::parse_value(text).map_err(|e| invalid(e.to_string()))?;
    let file = value.as_object().ok_or_else(|| invalid("expected a JSON object".into()))?;
    let format = string(required(file, "format").map_err(invalid)?).map_err(at("format"))?;
    if format != FORMAT_TAG {
        return Err(format!("unsupported circuit format `{format}` (expected `{FORMAT_TAG}`)"));
    }
    let name = match find(file, "name") {
        Some(v) => string(v).map_err(at("name"))?,
        None => "",
    };
    let num_qubits = required(file, "num_qubits").map_err(invalid)?;
    let num_qubits = index(num_qubits).map_err(at("num_qubits"))?;
    let gates = array(required(file, "gates").map_err(invalid)?).map_err(at("gates"))?;
    let mut c = QuantumCircuit::with_name(num_qubits, name);
    for (i, entry) in gates.iter().enumerate() {
        let (gate, qubits, params) = gate_entry(i, entry).map_err(invalid)?;
        let kind =
            GateKind::from_name(gate).ok_or_else(|| format!("gate #{i}: unknown gate `{gate}`"))?;
        c.push(Gate::new(kind, qubits, params)).map_err(|e| format!("gate #{i}: {e}"))?;
    }
    Ok(c)
}

/// Element `i` of `gates`: its name, qubits and parameters.
fn gate_entry(i: usize, entry: &Value) -> Result<(&str, Vec<usize>, Vec<f64>), String> {
    let at = format!("gates[{i}]");
    let fields = entry.as_object().ok_or_else(|| format!("{at}: {}", expected("object", entry)))?;
    let get = |key: &str| required(fields, key).map_err(|e| format!("{at}: {e}"));
    let gate = string(get("gate")?).map_err(|e| format!("{at}.gate: {e}"))?;
    let qubits = array(get("qubits")?).map_err(|e| format!("{at}.qubits: {e}"))?;
    let qubits = qubits
        .iter()
        .enumerate()
        .map(|(j, q)| index(q).map_err(|e| format!("{at}.qubits[{j}]: {e}")))
        .collect::<Result<_, _>>()?;
    let params = match find(fields, "params") {
        Some(params) => array(params).map_err(|e| format!("{at}.params: {e}"))?,
        None => &[],
    };
    let params = params
        .iter()
        .enumerate()
        .map(|(j, p)| {
            p.as_f64().ok_or_else(|| format!("{at}.params[{j}]: {}", expected("number", p)))
        })
        .collect::<Result<_, _>>()?;
    Ok((gate, qubits, params))
}

fn required<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    find(fields, key).ok_or_else(|| format!("missing field `{key}`"))
}

fn expected(what: &str, found: &Value) -> String {
    format!("expected {what}, found {}", found.type_name())
}

fn string(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| expected("string", v))
}

fn array(v: &Value) -> Result<&[Value], String> {
    v.as_array().ok_or_else(|| expected("array", v))
}

/// A qubit index or count: a non-negative integer.
fn index(v: &Value) -> Result<usize, String> {
    let Value::Num(n) = v else {
        return Err(expected("number", v));
    };
    n.as_u64()
        .and_then(|u| usize::try_from(u).ok())
        .ok_or_else(|| format!("expected a non-negative integer, found {}", n.as_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn round_trip_every_library_circuit() {
        let circuits = vec![
            library::bell(),
            library::ghz(4),
            library::qft(4),
            library::w_state(3),
            library::parity_check(&[true, false]),
            library::random_circuit(4, 30, 9),
        ];
        for c in circuits {
            let text = to_json(&c);
            let back = from_json(&text).unwrap();
            // Structure must match exactly; parameters within 1 ULP (the JSON
            // float parser in this environment is not exactly round-tripping).
            assert_eq!(back.num_qubits, c.num_qubits, "{}", c.name);
            assert_eq!(back.gate_count(), c.gate_count(), "{}", c.name);
            for (a, b) in c.gates().iter().zip(back.gates()) {
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.qubits, b.qubits);
                for (x, y) in a.params.iter().zip(&b.params) {
                    assert!((x - y).abs() <= f64::EPSILON * x.abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn file_text_is_pinned() {
        let mut c = QuantumCircuit::with_name(2, "pair");
        c.push(Gate::new(GateKind::H, vec![0], vec![])).unwrap();
        c.push(Gate::new(GateKind::Rz, vec![1], vec![0.5])).unwrap();
        let golden = r#"{
  "format": "qymera-circuit-v1",
  "name": "pair",
  "num_qubits": 2,
  "gates": [
    {
      "gate": "h",
      "qubits": [
        0
      ]
    },
    {
      "gate": "rz",
      "qubits": [
        1
      ],
      "params": [
        0.5
      ]
    }
  ]
}"#;
        assert_eq!(to_json(&c), golden);
    }

    #[test]
    fn example_file_loads_to_the_same_circuit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/circuits/ghz3.json");
        let loaded = from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut ghz = QuantumCircuit::with_name(3, "ghz_3");
        ghz.push(Gate::new(GateKind::H, vec![0], vec![])).unwrap();
        ghz.push(Gate::new(GateKind::Cx, vec![0, 1], vec![])).unwrap();
        ghz.push(Gate::new(GateKind::Cx, vec![1, 2], vec![])).unwrap();
        assert_eq!(loaded, ghz);
    }

    #[test]
    fn malformed_files_name_the_field_at_fault() {
        let cases = [
            (
                r#"{"format":"qymera-circuit-v1","num_qubits":2,
                    "gates":[{"gate":"h","qubits":"0"}]}"#,
                "gates[0].qubits: expected array, found string",
            ),
            (
                r#"{"format":"qymera-circuit-v1","num_qubits":-1,"gates":[]}"#,
                "num_qubits: expected a non-negative integer, found -1",
            ),
            (
                r#"{"format":"qymera-circuit-v1","num_qubits":1,
                    "gates":[{"gate":"rz","qubits":[0],"params":["x"]}]}"#,
                "gates[0].params[0]: expected number, found string",
            ),
            (r#"[1,2]"#, "expected a JSON object"),
            (r#"{"format":"qymera-circuit-v1","gates":[]}"#, "missing field `num_qubits`"),
            (
                r#"{"format":"qymera-circuit-v1","num_qubits":1,
                    "gates":[{"gate":"h","qubits":[0]},{"qubits":[0]}]}"#,
                "gates[1]: missing field `gate`",
            ),
        ];
        for (text, message) in cases {
            assert_eq!(from_json(text).unwrap_err(), format!("invalid circuit JSON: {message}"));
        }
    }

    #[test]
    fn rejects_wrong_format_tag() {
        let text = r#"{"format":"something-else","num_qubits":1,"gates":[]}"#;
        assert!(from_json(text).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn rejects_unknown_gate_and_bad_arity() {
        let text = r#"{"format":"qymera-circuit-v1","num_qubits":2,
                       "gates":[{"gate":"frobnicate","qubits":[0]}]}"#;
        assert!(from_json(text).unwrap_err().contains("unknown gate"));
        let text = r#"{"format":"qymera-circuit-v1","num_qubits":2,
                       "gates":[{"gate":"cx","qubits":[0]}]}"#;
        assert!(from_json(text).unwrap_err().contains("expects 2 qubits"));
        let text = r#"{"format":"qymera-circuit-v1","num_qubits":1,
                       "gates":[{"gate":"h","qubits":[3]}]}"#;
        assert!(from_json(text).unwrap_err().contains("uses qubit 3"));
    }

    #[test]
    fn accepts_gate_aliases() {
        let text = r#"{"format":"qymera-circuit-v1","num_qubits":2,
                       "gates":[{"gate":"CNOT","qubits":[0,1]}]}"#;
        let c = from_json(text).unwrap();
        assert_eq!(c.gates()[0].kind, GateKind::Cx);
    }

    #[test]
    fn params_preserved_exactly() {
        let c = crate::builder::CircuitBuilder::new(1).rz(0.123456789012345, 0).build();
        let back = from_json(&to_json(&c)).unwrap();
        assert_eq!(back.gates()[0].params[0], 0.123456789012345);
    }
}

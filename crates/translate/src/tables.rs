//! Relational encodings of quantum states and gates (§2.1 of the paper).
//!
//! * A state is a table `T(s, r, i)` holding only nonzero basis states;
//! * a gate is a table `G(in_s, out_s, r, i)` of transition amplitudes.
//!
//! [`GateTableRegistry`] deduplicates gate tables: every `H` in a circuit
//! shares one `H` table (as in Fig. 2b, where both CX gates reuse the same
//! `CX` table), while parameterized gates get distinct numbered tables. It
//! creates only the tables some query joins: a lone gate with a closed form
//! ([`crate::sqlgen::closed_form`]) is a projection and reads none. Per table
//! it also records whether the table [permutes], which decides whether a
//! join with it needs a `GROUP BY`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use qymera_circuit::{gate_table_entries, Complex64, Gate, GateKind};
use qymera_sqldb::{BigBits, Database, Result as SqlResult, Value};

use crate::masks::StateEncoding;
use crate::sqlgen::{closed_form, ClosedForm, SqlGenConfig};

/// Amplitudes smaller than this (in magnitude) are omitted from gate tables.
pub const GATE_AMPLITUDE_TOL: f64 = 1e-15;

/// One lowered gate operation: the qubits it acts on and its relational
/// `(in_s, out_s, amplitude)` rows. Both plain gates and fused blocks lower
/// to this form.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOp {
    /// Name of the gate table in the database (e.g. `H`, `CX`, `RZ_1`).
    pub table: String,
    /// Qubits in local-bit order (bit j of `in_s`/`out_s` is `qubits[j]`).
    pub qubits: Vec<usize>,
    /// Nonzero transition amplitudes.
    pub entries: Vec<(u64, u64, Complex64)>,
    /// What the SQL projects instead of joining `table`: the closed form of
    /// a lone gate's table, lowered by a registry that does not join every
    /// gate. Its table is not created.
    pub closed_form: Option<ClosedForm>,
    /// The table [permutes] basis states: a join with it sends each state
    /// row to its own new `s`, so the SQL has no `GROUP BY` (unless every op
    /// groups, [`SqlGenConfig::FIG_2C`]).
    pub permutes: bool,
}

impl GateOp {
    /// Rows in the paper's `G(in_s, out_s, r, i)` schema.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.entries
            .iter()
            .map(|&(in_s, out_s, amp)| {
                vec![
                    Value::Int(in_s as i64),
                    Value::Int(out_s as i64),
                    Value::Float(amp.re),
                    Value::Float(amp.im),
                ]
            })
            .collect()
    }
}

/// One materialized gate table: its name and `(in_s, out_s, amplitude)`
/// entries.
pub type GateTable = (String, Vec<(u64, u64, Complex64)>);

/// Whether a gate table is a permutation with phases: no `in_s` and no
/// `out_s` occurs twice. Read off the entries, whatever gate or block made
/// them. A unitary's entries then have modulus 1, so a join with the table
/// neither adds two amplitudes nor creates a zero.
pub fn permutes(entries: &[(u64, u64, Complex64)]) -> bool {
    let unique = |mut v: Vec<u64>| {
        v.sort_unstable();
        v.windows(2).all(|w| w[0] != w[1])
    };
    unique(entries.iter().map(|e| e.0).collect()) && unique(entries.iter().map(|e| e.1).collect())
}

/// What a gate's table is a function of: its kind and the bits of its
/// parameters (three at most, `U3`'s). A key that needs no allocation.
type Shape = (GateKind, [u64; 3]);

fn shape(gate: &Gate) -> Shape {
    let mut bits = [0; 3];
    for (b, p) in bits.iter_mut().zip(&gate.params) {
        *b = p.to_bits();
    }
    (gate.kind, bits)
}

/// Deduplicating registry of gate tables for one translation.
#[derive(Debug, Default)]
pub struct GateTableRegistry {
    /// Gate shape → index of its table in `tables`.
    by_shape: HashMap<Shape, usize>,
    /// Tables in registration order: (name, entries).
    tables: Vec<GateTable>,
    /// Per table: the closed form of a gate's own table, which a query
    /// joins only when every gate joins.
    closed: Vec<Option<ClosedForm>>,
    /// Per table: whether it [permutes].
    permutes: Vec<bool>,
    param_counter: usize,
    /// Lower for [`SqlGenConfig::join_every_gate`]: every op joins.
    pub(crate) join_every_gate: bool,
    /// The type of `in_s` and `out_s`: the state's `s` type, `HUGEINT` past
    /// 63 qubits.
    pub(crate) encoding: StateEncoding,
}

impl GateTableRegistry {
    /// An empty registry for the default translation.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry for the translation `cfg` asks for.
    pub fn for_sql(cfg: &SqlGenConfig) -> Self {
        GateTableRegistry { join_every_gate: cfg.join_every_gate, ..Self::default() }
    }

    /// Lower a circuit gate, registering its table if unseen.
    pub fn lower_gate(&mut self, gate: &Gate) -> GateOp {
        self.lower_gate_with(gate, || gate_table_entries(gate, GATE_AMPLITUDE_TOL))
    }

    /// [`Self::lower_gate`] for a caller that holds the gate's table:
    /// `entries` is called only if the gate's shape is unseen.
    pub(crate) fn lower_gate_with(
        &mut self,
        gate: &Gate,
        entries: impl FnOnce() -> Vec<(u64, u64, Complex64)>,
    ) -> GateOp {
        let at = match self.by_shape.entry(shape(gate)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                let name = if gate.params.is_empty() {
                    gate.kind.name().to_uppercase()
                } else {
                    self.param_counter += 1;
                    format!("{}_{}", gate.kind.name().to_uppercase(), self.param_counter)
                };
                let entries = entries();
                self.closed.push(closed_form(&entries, gate.qubits.len()));
                self.permutes.push(permutes(&entries));
                self.tables.push((name, entries));
                *slot.insert(self.tables.len() - 1)
            }
        };
        let (table, entries) = &self.tables[at];
        let closed_form = if self.join_every_gate { None } else { self.closed[at].clone() };
        let (table, entries, permutes) = (table.clone(), entries.clone(), self.permutes[at]);
        GateOp { table, qubits: gate.qubits.clone(), entries, closed_form, permutes }
    }

    /// Register a pre-built operation (fused blocks) under a fresh name.
    pub fn register_custom(
        &mut self,
        label: &str,
        qubits: Vec<usize>,
        entries: Vec<(u64, u64, Complex64)>,
    ) -> GateOp {
        self.param_counter += 1;
        let name = format!("{}_{}", label.to_uppercase(), self.param_counter);
        let permutes = permutes(&entries);
        self.tables.push((name.clone(), entries.clone()));
        self.closed.push(None);
        self.permutes.push(permutes);
        GateOp { table: name, qubits, entries, closed_form: None, permutes }
    }

    /// Distinct gate tables in registration order, created or not (see
    /// [`Self::joined`]).
    pub fn tables(&self) -> &[GateTable] {
        &self.tables
    }

    /// The tables some op lowered here joins, in creation order.
    pub fn joined(&self) -> impl Iterator<Item = &GateTable> {
        let every = self.join_every_gate;
        let joined = move |(table, form): (_, &Option<_>)| (form.is_none() || every).then_some(table);
        self.tables.iter().zip(&self.closed).filter_map(joined)
    }

    /// `CREATE TABLE` + bulk-load every [joined](Self::joined) gate table
    /// into `db`, its `in_s`/`out_s` of the state's type. Pre-existing tables of the same name are replaced, so
    /// re-running a circuit against a persistent database stays idempotent.
    pub fn materialize(&self, db: &mut Database) -> SqlResult<()> {
        let ty = self.encoding.sql_type();
        for (name, entries) in self.joined() {
            db.drop_table_if_exists(name)?;
            db.execute(&format!(
                "CREATE TABLE {name} (in_s {ty}, out_s {ty}, r DOUBLE, i DOUBLE)"
            ))?;
            let rows: Vec<Vec<Value>> = entries
                .iter()
                .map(|&(i, o, a)| {
                    vec![
                        Value::Int(i as i64),
                        Value::Int(o as i64),
                        Value::Float(a.re),
                        Value::Float(a.im),
                    ]
                })
                .collect();
            db.insert_rows(name, rows)?;
        }
        Ok(())
    }
}

/// Create the initial state table `name(s, r, i)` holding `|basis⟩` with
/// amplitude 1, using the encoding appropriate for `num_qubits`.
pub fn create_initial_state_table(
    db: &mut Database,
    name: &str,
    num_qubits: usize,
    basis: u64,
) -> SqlResult<StateEncoding> {
    let enc = StateEncoding::for_qubits(num_qubits);
    db.drop_table_if_exists(name)?;
    db.execute(&format!(
        "CREATE TABLE {name} (s {}, r DOUBLE, i DOUBLE)",
        enc.sql_type()
    ))?;
    let s_value = match enc {
        StateEncoding::Int => Value::Int(basis as i64),
        StateEncoding::Huge => Value::Big(BigBits::from_u64(basis, num_qubits)),
    };
    db.insert_rows(name, vec![vec![s_value, Value::Float(1.0), Value::Float(0.0)]])?;
    Ok(enc)
}

/// Load an arbitrary sparse state into a fresh table (used for mid-circuit
/// resumption and tests).
pub fn create_state_table_from(
    db: &mut Database,
    name: &str,
    num_qubits: usize,
    amplitudes: &[(u64, Complex64)],
) -> SqlResult<StateEncoding> {
    let enc = StateEncoding::for_qubits(num_qubits);
    db.drop_table_if_exists(name)?;
    db.execute(&format!(
        "CREATE TABLE {name} (s {}, r DOUBLE, i DOUBLE)",
        enc.sql_type()
    ))?;
    let rows: Vec<Vec<Value>> = amplitudes
        .iter()
        .map(|&(s, a)| {
            let sv = match enc {
                StateEncoding::Int => Value::Int(s as i64),
                StateEncoding::Huge => Value::Big(BigBits::from_u64(s, num_qubits)),
            };
            vec![sv, Value::Float(a.re), Value::Float(a.im)]
        })
        .collect();
    db.insert_rows(name, rows)?;
    Ok(enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_circuit::{c64, GateKind};

    #[test]
    fn h_and_cx_tables_match_fig2b() {
        let mut reg = GateTableRegistry::new();
        let h = reg.lower_gate(&Gate::new(GateKind::H, vec![0], vec![]));
        assert_eq!(h.table, "H");
        assert_eq!(h.entries.len(), 4);
        let cx = reg.lower_gate(&Gate::new(GateKind::Cx, vec![0, 1], vec![]));
        assert_eq!(cx.table, "CX");
        let io: Vec<(u64, u64)> = cx.entries.iter().map(|&(i, o, _)| (i, o)).collect();
        assert_eq!(io, vec![(0, 0), (1, 3), (2, 2), (3, 1)]);
    }

    #[test]
    fn identical_gates_share_tables() {
        let mut reg = GateTableRegistry::new();
        reg.lower_gate(&Gate::new(GateKind::Cx, vec![0, 1], vec![]));
        reg.lower_gate(&Gate::new(GateKind::Cx, vec![1, 2], vec![]));
        assert_eq!(reg.tables().len(), 1, "same CX matrix → one table (Fig. 2b)");
        // same kind with different parameters → distinct tables
        reg.lower_gate(&Gate::new(GateKind::Rz, vec![0], vec![0.5]));
        reg.lower_gate(&Gate::new(GateKind::Rz, vec![0], vec![0.7]));
        reg.lower_gate(&Gate::new(GateKind::Rz, vec![1], vec![0.5]));
        assert_eq!(reg.tables().len(), 3, "two RZ angles → two more tables");
    }

    #[test]
    fn materialize_creates_queryable_tables() {
        let mut reg = GateTableRegistry::new();
        reg.lower_gate(&Gate::new(GateKind::H, vec![0], vec![]));
        let mut db = Database::new();
        reg.materialize(&mut db).unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM H").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(4)));
        let rs = db
            .execute("SELECT r FROM H GROUP BY ((in_s << 1) | out_s), r HAVING ((in_s << 1) | out_s) = 3")
            .unwrap();
        let v = rs.scalar().unwrap().as_f64().unwrap();
        assert!((v + std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn initial_state_tables() {
        let mut db = Database::new();
        let enc = create_initial_state_table(&mut db, "T0", 3, 0).unwrap();
        assert_eq!(enc, StateEncoding::Int);
        let rs = db.execute("SELECT s, r, i FROM T0").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0)]);

        let enc = create_initial_state_table(&mut db, "TB", 100, 5).unwrap();
        assert_eq!(enc, StateEncoding::Huge);
        let rs = db.execute("SELECT s FROM TB").unwrap();
        assert!(matches!(rs.rows()[0][0], Value::Big(_)));
    }

    #[test]
    fn custom_state_load() {
        let mut db = Database::new();
        let amp = std::f64::consts::FRAC_1_SQRT_2;
        create_state_table_from(
            &mut db,
            "S",
            2,
            &[(0, c64(amp, 0.0)), (3, c64(0.0, amp))],
        )
        .unwrap();
        let rs = db.execute("SELECT SUM((r*r) + (i*i)) FROM S").unwrap();
        let norm = rs.scalar().unwrap().as_f64().unwrap();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_registration_gets_unique_names() {
        let mut reg = GateTableRegistry::new();
        let a = reg.register_custom("fused", vec![0, 1], vec![(0, 0, c64(1.0, 0.0))]);
        let b = reg.register_custom("fused", vec![1, 2], vec![(0, 0, c64(1.0, 0.0))]);
        assert_ne!(a.table, b.table);
    }
}

//! Seed-deterministic generation of random schemas, data, and SQL queries.
//!
//! Every case is a pure function of one `u64` seed. The query shapes are
//! weighted toward the operator matrix of `docs/OPERATORS.md`: inner and
//! LEFT equi-joins, plain aggregates and `COUNT(DISTINCT)`, `SELECT
//! DISTINCT`, `ORDER BY` / `LIMIT` / `OFFSET`, and deep CTE chains (the
//! translator's one-CTE-per-gate shape). Float data is dyadic (`k/8`) so
//! sums are FP-exact in any accumulation order — result comparison across
//! oracles and worker counts is then *exact*, not tolerance-based.

use qymera_sqldb::Value;

/// Deterministic SplitMix64 stream — the harness's only entropy source, so
/// a case is fully reproducible from its seed alone.
#[derive(Debug, Clone)]
pub struct CaseRng(u64);

impl CaseRng {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        CaseRng(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform `i64` in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Column types the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColTy {
    /// `INTEGER`.
    Int,
    /// `DOUBLE` (dyadic values only).
    Float,
    /// `TEXT` (small pool of short strings).
    Text,
}

impl ColTy {
    fn sql(self) -> &'static str {
        match self {
            ColTy::Int => "INTEGER",
            ColTy::Float => "DOUBLE",
            ColTy::Text => "TEXT",
        }
    }
}

/// One generated table: globally-unique column names (`k0`, `n0`, `f0`,
/// `s0` for table 0) so unqualified references and `SELECT *` stay
/// unambiguous under any join, which is what makes the metamorphic
/// rewrites purely syntactic.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (`t0`, `t1`, ...).
    pub name: String,
    /// `(column name, type)` in declaration order.
    pub columns: Vec<(String, ColTy)>,
    /// Row data (same arity as `columns`).
    pub rows: Vec<Vec<Value>>,
}

impl TableSpec {
    /// The `k{i}` join-key column name.
    pub fn key(&self) -> &str {
        &self.columns[0].0
    }

    /// All column names.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Join flavor in a generated query (both run the hash join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `JOIN ... ON l = r`.
    Inner,
    /// `LEFT JOIN ... ON l = r`.
    Left,
}

/// One join step.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Flavor.
    pub kind: JoinKind,
    /// Index of the joined table in [`SqlCase::tables`].
    pub table: usize,
    /// Left-side column (from the namespace built so far).
    pub left_col: String,
    /// Right-side column (from the joined table).
    pub right_col: String,
}

/// One conjunct of the `WHERE` clause: `col op literal`, `col IS [NOT]
/// NULL`, or `col IN (...)`.
#[derive(Debug, Clone)]
pub struct PredSpec {
    /// Column the predicate tests.
    pub col: String,
    /// Operator text (`=`, `!=`, `<`, `<=`, `>`, `>=`, `IS NULL`,
    /// `IS NOT NULL`, `IN`).
    pub op: &'static str,
    /// Comparison literals (empty for `IS [NOT] NULL`, several for `IN`).
    pub values: Vec<Value>,
}

impl PredSpec {
    fn sql(&self) -> String {
        match self.op {
            "IS NULL" | "IS NOT NULL" => format!("{} {}", self.col, self.op),
            "IN" => {
                let list: Vec<String> = self.values.iter().map(literal).collect();
                format!("{} IN ({})", self.col, list.join(", "))
            }
            op => format!("{} {} {}", self.col, op, literal(&self.values[0])),
        }
    }
}

/// One aggregate in the projection.
#[derive(Debug, Clone)]
pub struct AggItem {
    /// Function name (`SUM`, `COUNT`, `AVG`, `MIN`, `MAX`).
    pub func: &'static str,
    /// Argument column, `None` for `COUNT(*)`.
    pub col: Option<String>,
    /// `COUNT(DISTINCT col)` (only `COUNT` takes `DISTINCT`).
    pub distinct: bool,
    /// Output alias (`a0`, `a1`, ...).
    pub alias: String,
}

impl AggItem {
    /// The projection item, `FUNC([DISTINCT] arg) AS alias`.
    pub fn sql(&self) -> String {
        let arg = match (&self.col, self.distinct) {
            (None, _) => "*".to_string(),
            (Some(c), true) => format!("DISTINCT {c}"),
            (Some(c), false) => c.clone(),
        };
        format!("{}({arg}) AS {}", self.func, self.alias)
    }
}

/// `GROUP BY` block: keys plus aggregates.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Group keys (column names); empty = one global group.
    pub keys: Vec<String>,
    /// Aggregates in the projection (at least one).
    pub aggs: Vec<AggItem>,
}

/// The structured query under test. Rendering is deterministic; the
/// metamorphic layer ([`crate::meta`]) and the shrinker
/// ([`crate::shrink`]) both operate on this structure, never on SQL text.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Index of the `FROM` table in [`SqlCase::tables`].
    pub base: usize,
    /// Join chain applied to the base.
    pub joins: Vec<JoinSpec>,
    /// `WHERE` conjunction.
    pub predicates: Vec<PredSpec>,
    /// Optional aggregation.
    pub aggregate: Option<AggSpec>,
    /// `SELECT DISTINCT` (only without aggregation).
    pub distinct: bool,
    /// `ORDER BY` columns (name, DESC?).
    pub order_by: Vec<(String, bool)>,
    /// `LIMIT n OFFSET m`.
    pub limit: Option<(u64, u64)>,
    /// Wrap the core in this many pass-through CTE stages (deep chains —
    /// the translator's per-gate shape).
    pub cte_depth: usize,
}

/// A complete generated SQL case: schema + data + one query.
#[derive(Debug, Clone)]
pub struct SqlCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// Tables created and populated during setup.
    pub tables: Vec<TableSpec>,
    /// The query under test.
    pub query: QuerySpec,
}

/// Render a [`Value`] as a SQL literal.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("generator never emits {other:?}"),
    }
}

const TEXT_POOL: [&str; 6] = ["a", "b", "c", "d", "e", ""];

/// Key range: small, so equi-joins match and group counts stay bounded.
const KEY_RANGE: i64 = 24;

impl SqlCase {
    /// Generate the case for `seed`.
    pub fn generate(seed: u64) -> SqlCase {
        let mut rng = CaseRng::new(seed ^ 0x5EED_CA5E);
        let ntables = rng.range(1, 3) as usize;
        let tables: Vec<TableSpec> = (0..ntables).map(|i| gen_table(&mut rng, i)).collect();
        // Setup drew a `DELETE` per table here while the engine had one:
        // drawing the same numbers keeps every seed's case as it was.
        for t in &tables {
            if rng.chance(1, 4) {
                gen_predicate(&mut rng, &t.columns);
            }
        }
        let query = gen_query(&mut rng, &tables);
        SqlCase { seed, tables, query }
    }

    /// The setup statements: `CREATE TABLE`s and chunked `INSERT`s (≤ 16
    /// rows per statement so the durable oracle sees several WAL frames).
    pub fn setup_statements(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tables {
            let cols: Vec<String> =
                t.columns.iter().map(|(n, ty)| format!("{n} {}", ty.sql())).collect();
            out.push(format!("CREATE TABLE {} ({})", t.name, cols.join(", ")));
            for chunk in t.rows.chunks(16) {
                let rows: Vec<String> = chunk
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> = r.iter().map(literal).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                out.push(format!("INSERT INTO {} VALUES {}", t.name, rows.join(", ")));
            }
        }
        out
    }

    /// The query under test as SQL text.
    pub fn query_sql(&self) -> String {
        render_query(&self.query, &self.tables)
    }

    /// Column names the core query block (before DISTINCT/ORDER/LIMIT)
    /// exposes, in projection order.
    pub fn output_columns(&self) -> Vec<String> {
        output_columns(&self.query, &self.tables)
    }

    /// Total statements (setup + query) — the size the shrinker minimizes
    /// and the canary acceptance bound counts.
    pub fn statement_count(&self) -> usize {
        self.setup_statements().len() + 1
    }
}

fn gen_table(rng: &mut CaseRng, i: usize) -> TableSpec {
    // Column 0 is always the INTEGER join key `k{i}`.
    let mut columns = vec![(format!("k{i}"), ColTy::Int)];
    if rng.chance(4, 5) {
        columns.push((format!("n{i}"), ColTy::Int));
    }
    if rng.chance(4, 5) {
        columns.push((format!("f{i}"), ColTy::Float));
    }
    if rng.chance(1, 2) {
        columns.push((format!("s{i}"), ColTy::Text));
    }
    let nrows = rng.range(4, 56) as usize;
    // NULLs are decided per column: roughly half the columns stay
    // null-free so the engine's null-free typed fast lanes (which only
    // engage on columns without a validity mask) get real coverage, the
    // rest carry ~1-in-8 NULLs for three-valued-logic coverage.
    let nullable: Vec<bool> = columns.iter().map(|_| rng.chance(1, 2)).collect();
    let rows = (0..nrows)
        .map(|_| {
            columns
                .iter()
                .zip(&nullable)
                .map(|((_, ty), nullable)| {
                    if *nullable && rng.chance(1, 8) {
                        return Value::Null;
                    }
                    match ty {
                        ColTy::Int => Value::Int(rng.range(0, KEY_RANGE - 1)),
                        ColTy::Float => Value::Float(rng.range(-160, 160) as f64 / 8.0),
                        ColTy::Text => {
                            Value::Str(rng.pick(&TEXT_POOL).to_string())
                        }
                    }
                })
                .collect()
        })
        .collect();
    TableSpec { name: format!("t{i}"), columns, rows }
}

/// A predicate over one of `columns`, weighted toward `>` on INTEGER
/// columns (the richest comparison path on the typed fast lanes).
fn gen_predicate(rng: &mut CaseRng, columns: &[(String, ColTy)]) -> PredSpec {
    let (col, ty) = rng.pick(columns).clone();
    let value = |rng: &mut CaseRng| match ty {
        ColTy::Int => Value::Int(rng.range(0, KEY_RANGE - 1)),
        ColTy::Float => Value::Float(rng.range(-160, 160) as f64 / 8.0),
        ColTy::Text => Value::Str(rng.pick(&TEXT_POOL).to_string()),
    };
    match rng.below(10) {
        0 => PredSpec { col, op: "IS NULL", values: vec![] },
        1 => PredSpec { col, op: "IS NOT NULL", values: vec![] },
        2 => {
            let n = rng.range(1, 3);
            let values = (0..n).map(|_| value(rng)).collect();
            PredSpec { col, op: "IN", values }
        }
        k => {
            let op = match k {
                3 => "=",
                4 => "!=",
                5 => "<",
                6 => "<=",
                7 => ">=",
                _ => ">", // two slots: weighted toward `>`
            };
            PredSpec { col, op, values: vec![value(rng)] }
        }
    }
}

fn gen_query(rng: &mut CaseRng, tables: &[TableSpec]) -> QuerySpec {
    let base = rng.below(tables.len() as u64) as usize;
    let mut in_scope: Vec<usize> = vec![base];
    let mut joins = Vec::new();
    let njoins = match rng.below(8) {
        0..=3 => 0, // half the cases are single-table
        4..=6 => 1,
        _ => 2,
    }
    .min(tables.len() - 1);
    for _ in 0..njoins {
        // Join a table not yet in scope (self-joins would collide names).
        let candidates: Vec<usize> =
            (0..tables.len()).filter(|i| !in_scope.contains(i)).collect();
        let &table = rng.pick(&candidates);
        let kind = *rng.pick(&[
            JoinKind::Inner,
            JoinKind::Inner,
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Left,
        ]);
        let left_of = *rng.pick(&in_scope);
        joins.push(JoinSpec {
            kind,
            table,
            left_col: tables[left_of].key().to_string(),
            right_col: tables[table].key().to_string(),
        });
        in_scope.push(table);
    }

    let scope_columns: Vec<(String, ColTy)> = in_scope
        .iter()
        .flat_map(|&i| tables[i].columns.iter().cloned())
        .collect();

    let npreds = rng.below(4) as usize;
    let predicates =
        (0..npreds).map(|_| gen_predicate(rng, &scope_columns)).collect::<Vec<_>>();

    let aggregate = if rng.chance(2, 5) {
        let nkeys = rng.below(3) as usize;
        let mut keys = Vec::new();
        for _ in 0..nkeys {
            let (c, _) = rng.pick(&scope_columns).clone();
            if !keys.contains(&c) {
                keys.push(c);
            }
        }
        let naggs = rng.range(1, 3) as usize;
        let aggs = (0..naggs)
            .map(|j| {
                // COUNT twice: it is the one aggregate that takes DISTINCT.
                let func = *rng.pick(&["SUM", "COUNT", "COUNT", "AVG", "MIN", "MAX"]);
                let col = if func == "COUNT" && rng.chance(1, 2) {
                    None
                } else {
                    // Aggregate numeric columns only (MIN/MAX over text is
                    // legal but keeps the comparison surface numeric).
                    let numeric: Vec<&(String, ColTy)> = scope_columns
                        .iter()
                        .filter(|(_, ty)| *ty != ColTy::Text)
                        .collect();
                    Some(rng.pick(&numeric).0.clone())
                };
                let distinct = func == "COUNT" && col.is_some() && rng.chance(1, 2);
                AggItem { func, col, distinct, alias: format!("a{j}") }
            })
            .collect();
        Some(AggSpec { keys, aggs })
    } else {
        None
    };

    let distinct = aggregate.is_none() && rng.chance(1, 4);

    // ORDER BY over output columns; LIMIT only when ordered.
    let out_cols: Vec<String> = match &aggregate {
        Some(a) => a.keys.clone(),
        None => scope_columns.iter().map(|(n, _)| n.clone()).collect(),
    };
    let mut order_by = Vec::new();
    if !out_cols.is_empty() && rng.chance(1, 2) {
        let n = rng.range(1, 2.min(out_cols.len() as i64)) as usize;
        for _ in 0..n {
            let c = rng.pick(&out_cols).clone();
            if !order_by.iter().any(|(o, _)| *o == c) {
                order_by.push((c, rng.chance(1, 3)));
            }
        }
    }
    let limit = if !order_by.is_empty() && rng.chance(1, 3) {
        Some((rng.range(1, 20) as u64, if rng.chance(1, 3) { rng.range(1, 5) as u64 } else { 0 }))
    } else {
        None
    };

    let cte_depth = match rng.below(6) {
        0..=2 => 0,
        3 => rng.range(1, 3) as usize,
        4 => rng.range(4, 8) as usize,
        _ => rng.range(9, 16) as usize,
    };

    QuerySpec { base, joins, predicates, aggregate, distinct, order_by, limit, cte_depth }
}

/// Column names the core SELECT block exposes, in projection order.
pub fn output_columns(q: &QuerySpec, tables: &[TableSpec]) -> Vec<String> {
    match &q.aggregate {
        Some(a) => {
            let mut cols = a.keys.clone();
            cols.extend(a.aggs.iter().map(|g| g.alias.clone()));
            cols
        }
        None => {
            let mut cols = tables[q.base].column_names();
            for j in &q.joins {
                cols.extend(tables[j.table].column_names());
            }
            cols
        }
    }
}

/// The `FROM` clause (base + joins) as SQL.
pub fn render_from(q: &QuerySpec, tables: &[TableSpec]) -> String {
    let mut from = tables[q.base].name.clone();
    for j in &q.joins {
        let t = &tables[j.table].name;
        let kw = match j.kind {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT JOIN",
        };
        from = format!("{from} {kw} {t} ON {} = {}", j.left_col, j.right_col);
    }
    from
}

/// The core SELECT block (no ORDER BY / LIMIT / CTE wrapping).
pub fn render_core(q: &QuerySpec, tables: &[TableSpec]) -> String {
    let projection = match &q.aggregate {
        Some(a) => {
            let mut items = a.keys.clone();
            items.extend(a.aggs.iter().map(AggItem::sql));
            items.join(", ")
        }
        None => output_columns(q, tables).join(", "),
    };
    let distinct = if q.distinct { "DISTINCT " } else { "" };
    let mut sql = format!("SELECT {distinct}{projection} FROM {}", render_from(q, tables));
    if !q.predicates.is_empty() {
        let preds: Vec<String> = q.predicates.iter().map(PredSpec::sql).collect();
        sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if let Some(a) = &q.aggregate {
        if !a.keys.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", a.keys.join(", ")));
        }
    }
    sql
}

/// The full query: core, optionally wrapped in a pass-through CTE chain,
/// with ORDER BY / LIMIT outermost.
pub fn render_query(q: &QuerySpec, tables: &[TableSpec]) -> String {
    let core = render_core(q, tables);
    let mut sql = if q.cte_depth == 0 {
        core
    } else {
        let mut ctes = vec![format!("q0 AS ({core})")];
        for d in 1..q.cte_depth {
            ctes.push(format!("q{d} AS (SELECT * FROM q{})", d - 1));
        }
        format!("WITH {} SELECT * FROM q{}", ctes.join(", "), q.cte_depth - 1)
    };
    if !q.order_by.is_empty() {
        let items: Vec<String> = q
            .order_by
            .iter()
            .map(|(c, desc)| if *desc { format!("{c} DESC") } else { c.clone() })
            .collect();
        sql.push_str(&format!(" ORDER BY {}", items.join(", ")));
    }
    if let Some((n, off)) = q.limit {
        sql.push_str(&format!(" LIMIT {n}"));
        if off > 0 {
            sql.push_str(&format!(" OFFSET {off}"));
        }
    }
    sql
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SqlCase::generate(42);
        let b = SqlCase::generate(42);
        assert_eq!(a.setup_statements(), b.setup_statements());
        assert_eq!(a.query_sql(), b.query_sql());
        let c = SqlCase::generate(43);
        assert_ne!(a.query_sql(), c.query_sql(), "different seeds, different cases");
    }

    #[test]
    fn corpus_covers_the_operator_matrix() {
        let mut joins = 0;
        let mut outer = 0;
        let mut distinct_aggs = 0;
        let mut limits = 0;
        let mut deep_ctes = 0;
        for seed in 0..400 {
            let case = SqlCase::generate(seed);
            joins += case.query.joins.len();
            outer += case.query.joins.iter().filter(|j| j.kind == JoinKind::Left).count();
            if let Some(a) = &case.query.aggregate {
                distinct_aggs += a.aggs.iter().filter(|g| g.distinct).count();
            }
            limits += case.query.limit.is_some() as usize;
            deep_ctes += (case.query.cte_depth >= 9) as usize;
        }
        assert!(joins > 100, "joins: {joins}");
        assert!(outer > 20, "outer joins: {outer}");
        assert!(distinct_aggs > 20, "COUNT(DISTINCT) aggregates: {distinct_aggs}");
        assert!(limits > 20, "LIMIT cases: {limits}");
        assert!(deep_ctes > 20, "deep CTE chains: {deep_ctes}");
    }

    #[test]
    fn every_generated_query_parses() {
        for seed in 0..200 {
            let case = SqlCase::generate(seed);
            for st in case.setup_statements() {
                qymera_sqldb::parser::parse_statement(&st)
                    .unwrap_or_else(|e| panic!("seed {seed}: `{st}`: {e}"));
            }
            let q = case.query_sql();
            qymera_sqldb::parser::parse_statement(&q)
                .unwrap_or_else(|e| panic!("seed {seed}: `{q}`: {e}"));
        }
    }
}

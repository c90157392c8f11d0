//! Seed-deterministic generation of random schemas, data, and SQL queries.
//!
//! Every case is a pure function of one `u64` seed. The queries speak the
//! engine's language (`docs/OPERATORS.md`) and are weighted toward its
//! operator matrix: equi-joins, `SUM` and `COUNT(*)` with `GROUP BY` and
//! `HAVING agg > k` (an `INTEGER` aggregate against a small constant, so
//! groups tie with it on the typed `>` lane), a one-key `ORDER BY`, and
//! deep CTE chains (the translator's one-CTE-per-gate shape). Float data is
//! dyadic (`k/8`) so sums are FP-exact
//! in any accumulation order — result comparison across oracles is then
//! *exact*, not tolerance-based.

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
/// `s0` for table 0) so unqualified references stay unambiguous under any
/// join, which is what makes the metamorphic rewrites purely syntactic.
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

/// One join step, `JOIN t ON l = r`.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Index of the joined table in [`SqlCase::tables`].
    pub table: usize,
    /// Left-side column (from the namespace built so far).
    pub left_col: String,
    /// Right-side column (from the joined table).
    pub right_col: String,
}

/// One aggregate in the projection: `SUM(col)` or `COUNT(*)`.
#[derive(Debug, Clone)]
pub struct AggItem {
    /// The `SUM` argument, `None` for `COUNT(*)`.
    pub col: Option<String>,
    /// Whether the result is an `INTEGER`: `COUNT(*)`, or `SUM` of an
    /// `INTEGER` column.
    pub int: bool,
    /// Output alias (`a0`, `a1`, ...).
    pub alias: String,
}

impl AggItem {
    /// The call, `SUM(col)` or `COUNT(*)`.
    pub fn call(&self) -> String {
        match &self.col {
            None => "COUNT(*)".to_string(),
            Some(c) => format!("SUM({c})"),
        }
    }

    /// The projection item, `call AS alias`.
    pub fn sql(&self) -> String {
        format!("{} AS {}", self.call(), self.alias)
    }
}

/// `GROUP BY` block: keys plus aggregates.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Group keys (column names); empty = one global group.
    pub keys: Vec<String>,
    /// Aggregates in the projection (at least one).
    pub aggs: Vec<AggItem>,
    /// `HAVING aggs[i] > k`, `aggs[i]` an `INTEGER` aggregate.
    pub having: Option<(usize, i64)>,
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
    /// Optional aggregation.
    pub aggregate: Option<AggSpec>,
    /// The `ORDER BY` column.
    pub order_by: Option<String>,
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

    /// Column names the core query block (before ORDER BY) exposes, in
    /// projection order.
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
    let rows = (0..nrows)
        .map(|_| columns.iter().map(|(_, ty)| gen_value(rng, *ty)).collect())
        .collect();
    TableSpec { name: format!("t{i}"), columns, rows }
}

/// A value of type `ty`.
fn gen_value(rng: &mut CaseRng, ty: ColTy) -> Value {
    match ty {
        ColTy::Int => Value::Int(rng.range(0, KEY_RANGE - 1)),
        ColTy::Float => Value::Float(rng.range(-160, 160) as f64 / 8.0),
        ColTy::Text => Value::Str(rng.pick(&TEXT_POOL).to_string()),
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
        let left_of = *rng.pick(&in_scope);
        joins.push(JoinSpec {
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

    let aggregate = if rng.chance(1, 2) {
        let nkeys = rng.below(3) as usize;
        let mut keys = Vec::new();
        for _ in 0..nkeys {
            let (c, _) = rng.pick(&scope_columns).clone();
            if !keys.contains(&c) {
                keys.push(c);
            }
        }
        let naggs = rng.range(1, 3) as usize;
        let of_type = |pred: fn(ColTy) -> bool| -> Vec<String> {
            scope_columns.iter().filter(|(_, ty)| pred(*ty)).map(|(c, _)| c.clone()).collect()
        };
        let (numeric, ints) = (of_type(|t| t != ColTy::Text), of_type(|t| t == ColTy::Int));
        let aggs: Vec<AggItem> = (0..naggs)
            .map(|j| {
                let (col, int) = match rng.below(3) {
                    0 => {
                        let c = rng.pick(&numeric).clone();
                        let int = ints.contains(&c);
                        (Some(c), int)
                    }
                    1 => (None, true),
                    _ => (Some(rng.pick(&ints).clone()), true),
                };
                AggItem { col, int, alias: format!("a{j}") }
            })
            .collect();
        // `HAVING a > k` over an `INTEGER` aggregate, `k` where its groups
        // tend to land: a count of a few rows, a sum of one or two values.
        let int_aggs: Vec<usize> = (0..naggs).filter(|&j| aggs[j].int).collect();
        let having = (!int_aggs.is_empty() && rng.chance(1, 2)).then(|| {
            let j = *rng.pick(&int_aggs);
            let k = match aggs[j].col {
                None => rng.range(0, 3),
                Some(_) => rng.range(0, 2 * KEY_RANGE),
            };
            (j, k)
        });
        Some(AggSpec { keys, aggs, having })
    } else {
        None
    };

    // ORDER BY one output column.
    let out_cols: Vec<String> = match &aggregate {
        Some(a) => a.keys.clone(),
        None => scope_columns.iter().map(|(n, _)| n.clone()).collect(),
    };
    let order_by =
        (!out_cols.is_empty() && rng.chance(1, 2)).then(|| rng.pick(&out_cols).clone());

    let cte_depth = match rng.below(6) {
        0..=2 => 0,
        3 => rng.range(1, 3) as usize,
        4 => rng.range(4, 8) as usize,
        _ => rng.range(9, 16) as usize,
    };

    QuerySpec { base, joins, aggregate, order_by, cte_depth }
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
        from = format!("{from} JOIN {t} ON {} = {}", j.left_col, j.right_col);
    }
    from
}

/// The core SELECT block over the relation `from` (the query's own `FROM`
/// clause, or what a metamorphic rewrite puts in its place): projection,
/// `GROUP BY` and `HAVING`.
pub fn render_select(q: &QuerySpec, tables: &[TableSpec], from: &str) -> String {
    let projection = match &q.aggregate {
        Some(a) => {
            let mut items = a.keys.clone();
            items.extend(a.aggs.iter().map(AggItem::sql));
            items.join(", ")
        }
        None => output_columns(q, tables).join(", "),
    };
    let mut sql = format!("SELECT {projection} FROM {from}");
    if let Some(a) = &q.aggregate {
        if !a.keys.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", a.keys.join(", ")));
        }
        if let Some((i, k)) = &a.having {
            sql.push_str(&format!(" HAVING {} > {k}", a.aggs[*i].call()));
        }
    }
    sql
}

/// The core SELECT block (no ORDER BY / CTE wrapping).
pub fn render_core(q: &QuerySpec, tables: &[TableSpec]) -> String {
    render_select(q, tables, &render_from(q, tables))
}

/// The full query: core, optionally wrapped in a pass-through CTE chain,
/// with ORDER BY outermost.
pub fn render_query(q: &QuerySpec, tables: &[TableSpec]) -> String {
    let core = render_core(q, tables);
    let mut sql = if q.cte_depth == 0 {
        core
    } else {
        let cols = output_columns(q, tables).join(", ");
        let mut ctes = vec![format!("q0 AS ({core})")];
        for d in 1..q.cte_depth {
            ctes.push(format!("q{d} AS (SELECT {cols} FROM q{})", d - 1));
        }
        format!("WITH {} SELECT {cols} FROM q{}", ctes.join(", "), q.cte_depth - 1)
    };
    if let Some(c) = &q.order_by {
        sql.push_str(&format!(" ORDER BY {c}"));
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

    /// Whether `HAVING a_j > k` meets a tie: a group whose `a_j` is `k`,
    /// read off the reference's answer to the query without its `HAVING`.
    fn having_ties(case: &SqlCase) -> bool {
        let Some((j, k)) = case.query.aggregate.as_ref().and_then(|a| a.having) else {
            return false;
        };
        let mut q = case.query.clone();
        q.aggregate.as_mut().unwrap().having = None;
        let mut db = qymera_sqldb::Database::new();
        for st in case.setup_statements() {
            db.execute(&st).unwrap();
        }
        let col = q.aggregate.as_ref().unwrap().keys.len() + j;
        let rows = db.query_reference(&render_core(&q, &case.tables)).unwrap().into_rows();
        rows.iter().any(|row| row[col] == Value::Int(k))
    }

    /// The pinned corpus (`qymera-fuzz --cases 500`'s) reaches every form
    /// the engine keeps, including the shape the `canary` mutation needs: a
    /// `HAVING a > k` where some group's `a` is `k` (the canary turns `>`
    /// into `>=` on the `INTEGER` lane), `GROUP BY`, `ORDER BY` and deep
    /// CTE chains.
    #[test]
    fn corpus_covers_the_operator_matrix() {
        let mut seen = std::collections::BTreeMap::<&str, usize>::new();
        let mut count = |what, hit: bool| *seen.entry(what).or_default() += usize::from(hit);
        for i in 0..500 {
            let case = SqlCase::generate(crate::base_seed().wrapping_add(i));
            let q = &case.query;
            count("join", !q.joins.is_empty());
            count("deep CTE chain", q.cte_depth >= 9);
            count("ORDER BY", q.order_by.is_some());
            let Some(a) = &q.aggregate else { continue };
            count("HAVING", a.having.is_some());
            count("HAVING >, tied on the Int lane", having_ties(&case));
            count("GROUP BY", !a.keys.is_empty());
        }
        for (what, at_least) in [
            ("join", 100),
            ("deep CTE chain", 20),
            ("ORDER BY", 20),
            ("HAVING", 20),
            ("HAVING >, tied on the Int lane", 10),
            ("GROUP BY", 20),
        ] {
            let n = seen.get(what).copied().unwrap_or(0);
            assert!(n >= at_least, "{what}: {n} cases, want at least {at_least}: {seen:?}");
        }
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

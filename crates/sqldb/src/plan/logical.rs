//! Query planning: AST → bound logical plan.
//!
//! The planner resolves names bottom-up and binds every expression once: an
//! aggregate query becomes an explicit `Aggregate` node, and its projection
//! and `HAVING` are bound straight over that node's output (a subtree equal
//! to a `GROUP BY` expression, or an aggregate call, reads the aggregate's
//! column by index). The result is a tree of [`Plan`] nodes carrying
//! [`BoundExpr`]s that the executor can run directly.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{self, Expr, Query, Select, SelectItem, TableRef};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::{bind, bind_with, BoundExpr};
use crate::plan::optimizer::join_key;
use crate::schema::{Field, RelSchema};

/// Aggregate functions supported by the engine (`MIN`, `MAX` and `AVG`
/// are refused as removed functions, `expr::UNSUPPORTED_FUNCS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    /// `COUNT(*)` — counts rows; `COUNT(x)` is refused.
    CountStar,
}

impl AggFunc {
    /// The aggregate `name(args)` calls; `name` is `SUM` or `COUNT`
    /// ([`ast::is_aggregate_name`]).
    fn from_call<'e>(name: &str, args: &'e [Expr]) -> Result<(AggFunc, Option<&'e Expr>)> {
        if name.eq_ignore_ascii_case("COUNT") {
            return match args {
                [Expr::Star] => Ok((AggFunc::CountStar, None)),
                _ => Err(Error::Unsupported("COUNT(expr) (write COUNT(*))".into())),
            };
        }
        match args {
            [a] if *a != Expr::Star => Ok((AggFunc::Sum, Some(a))),
            _ => Err(Error::Plan(format!("wrong number of arguments to aggregate `{name}`"))),
        }
    }
}

/// One aggregate computation inside an `Aggregate` node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
}

/// Bound logical plan. Every node knows its output schema.
///
/// Children are shared (`Arc`): a CTE is planned once and every reference to
/// it points at that one subtree, so a k-gate chain (each CTE reading its
/// predecessor) is k nodes of work to plan, not k copies of ever longer
/// prefixes. Readers see a tree: `explain`, `depth` and both executors walk a
/// shared subtree once per reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base table scan (snapshot taken at execution time).
    Scan { table: String, schema: RelSchema },
    Filter { input: Arc<Plan>, predicate: BoundExpr },
    Project { input: Arc<Plan>, exprs: Vec<BoundExpr>, schema: RelSchema },
    /// The inner hash join.
    Join {
        left: Arc<Plan>,
        right: Arc<Plan>,
        /// One equality between an expression of the left input and one of
        /// the right (`optimizer::join_key`).
        on: BoundExpr,
        schema: RelSchema,
    },
    /// Output: the group keys, then the aggregates. Under a `GROUP BY` the
    /// columns have no names: the projection and `HAVING` above read them
    /// by index.
    Aggregate {
        input: Arc<Plan>,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        schema: RelSchema,
    },
    /// Ascending by one key; ties keep input order.
    Sort { input: Arc<Plan>, key: BoundExpr },
    /// Renames the qualifier of the input's columns (CTE name or alias).
    Alias { input: Arc<Plan>, schema: RelSchema },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> &RelSchema {
        match self {
            Plan::Scan { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::Join { schema, .. }
            | Plan::Aggregate { schema, .. }
            | Plan::Alias { schema, .. } => schema,
            Plan::Filter { input, .. } | Plan::Sort { input, .. } => input.schema(),
        }
    }

    /// Height of the plan tree. The translator emits one CTE per gate, so
    /// this is unbounded; [`depth_bound`] bounds it from the AST for callers
    /// that must pick a stack before a plan exists.
    pub fn depth(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Alias { input, .. } => input.depth(),
            Plan::Join { left, right, .. } => left.depth().max(right.depth()),
        }
    }

    /// Render as an indented plan tree (for debugging / EXPLAIN-style output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let line = match self {
            Plan::Scan { table, .. } => format!("Scan {table}"),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
            Plan::Join { .. } => "Join Inner on".to_string(),
            Plan::Aggregate { group_by, aggs, .. } => {
                format!("Aggregate [{} keys, {} aggs]", group_by.len(), aggs.len())
            }
            Plan::Sort { .. } => "Sort [1 keys]".to_string(),
            Plan::Alias { .. } => "Alias".to_string(),
        };
        out.push_str(&pad);
        out.push_str(&line);
        out.push('\n');
        match self {
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Alias { input, .. } => input.explain_into(depth + 1, out),
            Plan::Join { left, right, .. } => {
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::Scan { .. } => {}
        }
    }
}

/// CTEs visible to one query: its own `WITH` list so far, then the enclosing
/// queries' through `parent` (a CTE's body may have a `WITH` of its own). A
/// frame holds only its own `WITH`'s names, so entering one copies nothing,
/// a name already in the frame is a duplicate, and a name found further out
/// is shadowed.
#[derive(Default)]
struct CteScope<'a> {
    parent: Option<&'a CteScope<'a>>,
    ctes: HashMap<String, Arc<Plan>>,
}

impl CteScope<'_> {
    fn get(&self, key: &str) -> Option<&Arc<Plan>> {
        self.ctes.get(key).or_else(|| self.parent?.get(key))
    }
}

/// Plan a full query against the catalog.
pub fn plan_query(query: &Query, catalog: &Catalog) -> Result<Plan> {
    plan_query_scoped(query, catalog, &CteScope::default())
}

/// Upper bound on `plan_query(query)?.depth()`, read off the AST so a caller
/// can pick its stack before any recursive pass over the plan runs (the
/// optimizer never deepens a plan). A root-to-leaf path crosses each query
/// block of the statement at most once — a CTE sees only earlier CTEs — so
/// the blocks' own heights add up; for a gate chain the sum is within 2x of
/// the real depth.
pub fn depth_bound(query: &Query) -> usize {
    let s = &query.body;
    // The Alias a CTE is wrapped in, one more for a renamed
    // reference to it, then Sort; the block's leaf, Aggregate and Project,
    // then one for `HAVING` and one per join.
    2 + usize::from(query.order_by.is_some())
        + query.ctes.iter().map(|(_, q)| depth_bound(q)).sum::<usize>()
        + 3
        + usize::from(s.having.is_some())
        + s.joins.len()
}

fn plan_query_scoped(query: &Query, catalog: &Catalog, outer: &CteScope) -> Result<Plan> {
    let mut scope = CteScope { parent: Some(outer), ctes: HashMap::new() };
    for (name, cte_query) in &query.ctes {
        let plan = plan_query_scoped(cte_query, catalog, &scope)?;
        // Make the CTE addressable by its name.
        let schema = plan.schema().with_relation(name);
        let plan = Arc::new(Plan::Alias { input: Arc::new(plan), schema });
        if scope.ctes.insert(name.to_ascii_lowercase(), plan).is_some() {
            return Err(Error::Plan(format!("duplicate CTE name `{name}`")));
        }
    }

    let plan = plan_select(&query.body, catalog, &scope)?;
    Ok(match &query.order_by {
        Some(key) => {
            let key = bind_order_key(key, plan.schema())?;
            Plan::Sort { input: Arc::new(plan), key }
        }
        None => plan,
    })
}

/// The `ORDER BY` key may be an output-column reference or an arbitrary
/// expression over the output schema.
fn bind_order_key(key: &Expr, schema: &RelSchema) -> Result<BoundExpr> {
    bind(key, schema).or_else(|first_err| match key {
        // Projection output columns are unqualified; allow `t.col` to fall
        // back to the bare output name `col` (standard SQL permits ordering
        // by input columns that survive the projection).
        Expr::Column { table: Some(_), name } => {
            schema.resolve(None, name).map(BoundExpr::Column).map_err(|_| first_err)
        }
        _ => Err(first_err),
    })
}

fn plan_table_ref(tref: &TableRef, catalog: &Catalog, scope: &CteScope) -> Result<Arc<Plan>> {
    let TableRef { name, alias } = tref;
    // CTEs shadow base tables. A reference shares the CTE's plan.
    if let Some(cte) = scope.get(&name.to_ascii_lowercase()) {
        let plan = Arc::clone(cte);
        return Ok(match alias {
            Some(a) => {
                let schema = plan.schema().with_relation(a);
                Arc::new(Plan::Alias { input: plan, schema })
            }
            None => plan,
        });
    }
    let table = catalog.get(name)?;
    let schema = match alias {
        Some(a) => table.schema().with_relation(a),
        None => table.schema(),
    };
    Ok(Arc::new(Plan::Scan { table: table.name().to_string(), schema }))
}

fn plan_select(select: &Select, catalog: &Catalog, scope: &CteScope) -> Result<Plan> {
    // FROM and JOINs.
    let mut plan = plan_table_ref(&select.from, catalog, scope)?;
    for join in &select.joins {
        let right = plan_table_ref(&join.table, catalog, scope)?;
        let left_cols = plan.schema().len();
        let schema = plan.schema().join(right.schema());
        let on = bind(&join.on, &schema)?;
        // The hash join is the only join operator: one key, no residual.
        if join_key(&on, left_cols).is_none() {
            return Err(Error::Unsupported(format!(
                "join condition that is not one equality between the joined tables: {}",
                join.on
            )));
        }
        plan = Arc::new(Plan::Join { left: plan, right, on, schema });
    }

    let items = &select.projection;
    let has_aggs = !select.group_by.is_empty()
        || items.iter().any(|item| item.expr.contains_aggregate())
        || select.having.as_ref().is_some_and(Expr::contains_aggregate);

    let (plan, exprs) = if has_aggs {
        plan_aggregate(plan, select)?
    } else {
        if select.having.is_some() {
            return Err(Error::Plan("HAVING requires GROUP BY or aggregates".into()));
        }
        let exprs =
            items.iter().map(|item| bind(&item.expr, plan.schema())).collect::<Result<_>>()?;
        (plan, exprs)
    };
    let fields = items.iter().map(|item| Field::named(output_name(item))).collect();
    Ok(Plan::Project { input: plan, exprs, schema: RelSchema::new(fields) })
}

/// Build the `Aggregate` node, with any `HAVING` filter above it, and bind
/// the projection over its output. Each expression is bound once:
/// group keys and aggregate arguments against the input, everything else
/// against the aggregate's columns — a subtree structurally equal to the
/// i-th `GROUP BY` expression reads column i, the j-th distinct aggregate
/// call column `group_by.len() + j`. A bare column outside both is an
/// error, as strict SQL `GROUP BY` rules have it.
fn plan_aggregate(input: Arc<Plan>, select: &Select) -> Result<(Arc<Plan>, Vec<BoundExpr>)> {
    let input_schema = input.schema();
    let mut group_by = Vec::with_capacity(select.group_by.len());
    for g in &select.group_by {
        if g.contains_aggregate() {
            return Err(Error::Plan("aggregates are not allowed in GROUP BY".into()));
        }
        group_by.push(bind(g, input_schema)?);
    }

    // Aggregate calls found so far (deduplicated structurally).
    let mut calls: Vec<(&Expr, AggExpr)> = Vec::new();
    let mut over_aggregate = |expr| -> Result<Option<BoundExpr>> {
        if let Some(i) = select.group_by.iter().position(|g| exprs_equivalent(expr, g)) {
            return Ok(Some(BoundExpr::Column(i)));
        }
        match expr {
            Expr::Function { name, args } if ast::is_aggregate_name(name) => {
                if args.iter().any(Expr::contains_aggregate) {
                    return Err(Error::Plan("nested aggregate calls are not allowed".into()));
                }
                let j = match calls.iter().position(|(call, _)| exprs_equivalent(call, expr)) {
                    Some(j) => j,
                    None => {
                        let (func, arg) = AggFunc::from_call(name, args)?;
                        let arg = arg.map(|a| bind(a, input_schema)).transpose()?;
                        calls.push((expr, AggExpr { func, arg }));
                        calls.len() - 1
                    }
                };
                Ok(Some(BoundExpr::Column(select.group_by.len() + j)))
            }
            Expr::Column { table, name } => Err(Error::Plan(format!(
                "column `{}` must appear in GROUP BY or inside an aggregate",
                match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.clone(),
                }
            ))),
            _ => Ok(None),
        }
    };
    let exprs = (select.projection.iter())
        .map(|item| bind_with(&item.expr, &mut over_aggregate))
        .collect::<Result<Vec<_>>>()?;
    let having = select.having.as_ref().map(|h| bind_with(h, &mut over_aggregate)).transpose()?;

    let columns = group_by.len() + calls.len();
    let mut plan = Arc::new(Plan::Aggregate {
        input,
        group_by,
        aggs: calls.into_iter().map(|(_, agg)| agg).collect(),
        schema: RelSchema::new(vec![Field::named(String::new()); columns]),
    });
    if let Some(predicate) = having {
        plan = Arc::new(Plan::Filter { input: plan, predicate });
    }
    Ok((plan, exprs))
}

/// Structural equivalence, names compared without regard to case.
fn exprs_equivalent(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Unary { op: oa, expr: ea }, Expr::Unary { op: ob, expr: eb }) => {
            oa == ob && exprs_equivalent(ea, eb)
        }
        (
            Expr::Binary { left: la, op: oa, right: ra },
            Expr::Binary { left: lb, op: ob, right: rb },
        ) => oa == ob && exprs_equivalent(la, lb) && exprs_equivalent(ra, rb),
        (Expr::Function { name: na, args: aa }, Expr::Function { name: nb, args: ab }) => {
            na.eq_ignore_ascii_case(nb)
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| exprs_equivalent(x, y))
        }
        (Expr::Column { table: ta, name: na }, Expr::Column { table: tb, name: nb }) => {
            na.eq_ignore_ascii_case(nb)
                && match (ta, tb) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    (None, None) => true,
                    _ => false,
                }
        }
        _ => a == b,
    }
}

/// Output column name: alias, else column name, else printed expression.
fn output_name(item: &SelectItem) -> String {
    match (&item.alias, &item.expr) {
        (Some(a), _) => a.clone(),
        (None, Expr::Column { name, .. }) => name.clone(),
        (None, other) => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::DataType;
    use crate::parser::parse_statement;
    use crate::storage::budget::MemoryBudget;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let b = MemoryBudget::unlimited();
        c.create_table(
            "T0",
            vec![
                ("s".into(), DataType::Integer),
                ("r".into(), DataType::Double),
                ("i".into(), DataType::Double),
            ],
            false,
            b.clone(),
        )
        .unwrap();
        c.create_table(
            "H",
            vec![
                ("in_s".into(), DataType::Integer),
                ("out_s".into(), DataType::Integer),
                ("r".into(), DataType::Double),
                ("i".into(), DataType::Double),
            ],
            false,
            b,
        )
        .unwrap();
        c
    }

    fn plan(sql: &str) -> Result<Plan> {
        let st = parse_statement(sql).unwrap();
        let ast::Statement::Query(q) = st else { panic!("not a query") };
        plan_query(&q, &catalog())
    }

    #[test]
    fn plans_fig2_gate_query() {
        let p = plan(
            "SELECT ((T0.s & ~1) | H.out_s) AS s, \
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
             FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
             GROUP BY ((T0.s & ~1) | H.out_s)",
        )
        .unwrap();
        let schema = p.schema();
        assert_eq!(schema.names(), vec!["s", "r", "i"]);
        // Project over Aggregate over Join
        let Plan::Project { input, .. } = &p else { panic!("expected project") };
        let Plan::Aggregate { group_by, aggs, .. } = input.as_ref() else {
            panic!("expected aggregate, got {}", p.explain())
        };
        assert_eq!(group_by.len(), 1);
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn cte_chain_resolves() {
        let p = plan(
            "WITH T1 AS (SELECT s, r, i FROM T0), T2 AS (SELECT s FROM T1) \
             SELECT s FROM T2 ORDER BY s",
        )
        .unwrap();
        assert!(matches!(p, Plan::Sort { .. }));
    }

    #[test]
    fn duplicate_cte_name_in_one_with_is_a_plan_error() {
        let e = plan("WITH a AS (SELECT s FROM T0), A AS (SELECT r FROM T0) SELECT s FROM a")
            .unwrap_err();
        assert!(matches!(e, Error::Plan(m) if m.contains("duplicate CTE name `A`")));
    }

    #[test]
    fn inner_with_may_shadow_an_outer_cte() {
        let p = plan(
            "WITH a AS (SELECT s FROM T0), \
             u AS (WITH a AS (SELECT s, r FROM T0) SELECT s, r FROM a) \
             SELECT u.s, u.r, a.s FROM u JOIN a ON a.s = u.s",
        )
        .unwrap();
        // `u` sees the inner `a`, the outer FROM item the outer one.
        assert_eq!(p.schema().names(), vec!["s", "r", "s"]);
    }

    #[test]
    fn cte_referenced_twice_is_planned_once() {
        let p = plan(
            "WITH a AS (SELECT s FROM T0) SELECT x.s FROM a JOIN a AS x ON x.s = a.s",
        )
        .unwrap();
        let Plan::Project { input, .. } = &p else { panic!("expected project") };
        let Plan::Join { left, right, .. } = input.as_ref() else { panic!("expected join") };
        // The renamed reference is an Alias over the very same node.
        let Plan::Alias { input: renamed, .. } = right.as_ref() else { panic!("expected alias") };
        assert!(Arc::ptr_eq(left, renamed));
        assert_eq!(p.explain().matches("Scan T0").count(), 2, "readers still see a tree");
    }

    #[test]
    fn depth_bound_covers_every_clause() {
        for sql in [
            "SELECT s FROM T0 GROUP BY s HAVING COUNT(*) > 0 ORDER BY s",
            "SELECT T0.s FROM T0 JOIN H ON H.in_s = T0.s JOIN H AS g ON g.in_s = T0.s",
            "WITH u AS (SELECT s FROM T0 ORDER BY s) SELECT s FROM u",
            "WITH T1 AS (SELECT s, SUM(T0.r) AS r FROM T0 JOIN H ON H.in_s = T0.s GROUP BY s), \
             T2 AS (SELECT x.s FROM T1 AS x ORDER BY s) SELECT y.s FROM T2 AS y",
        ] {
            let ast::Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
            let depth = plan_query(&q, &catalog()).unwrap().depth();
            assert!(depth_bound(&q) >= depth, "{sql}: {} < {depth}", depth_bound(&q));
        }
    }

    #[test]
    fn group_by_column_not_in_group_is_error() {
        let e = plan("SELECT r FROM T0 GROUP BY s").unwrap_err();
        assert!(matches!(e, Error::Plan(m) if m.contains("GROUP BY")));
    }

    #[test]
    fn having_without_group_is_error_but_with_agg_ok() {
        assert!(plan("SELECT s FROM T0 HAVING s > 1").is_err());
        assert!(plan("SELECT s FROM T0 GROUP BY s HAVING COUNT(*) > 1").is_ok());
        assert!(plan("SELECT SUM(r) FROM T0 HAVING SUM(r) > 0").is_ok());
    }

    #[test]
    fn duplicate_aggregates_are_shared() {
        let p = plan("SELECT SUM(r) + SUM(r) AS x FROM T0").unwrap();
        let Plan::Project { input, .. } = &p else { panic!() };
        let Plan::Aggregate { aggs, .. } = input.as_ref() else { panic!() };
        assert_eq!(aggs.len(), 1, "structurally identical SUM(r) deduplicated");
    }

    #[test]
    fn order_by_alias_and_expression() {
        assert!(plan("SELECT s AS q FROM T0 ORDER BY q").is_ok());
        assert!(plan("SELECT s, r FROM T0 ORDER BY r * 2.0").is_ok());
        assert!(plan("SELECT T0.s FROM T0 ORDER BY T0.s").is_ok());
        assert!(plan("SELECT s FROM T0 ORDER BY nope").is_err());
    }

    #[test]
    fn joins_but_on_one_key_and_aggregates_but_three_are_unsupported() {
        for sql in [
            "SELECT T0.s FROM T0 JOIN H ON H.in_s > T0.s",
            "SELECT T0.s FROM T0 JOIN H ON H.in_s = 1",
            "SELECT T0.s FROM T0 JOIN H ON H.in_s = H.out_s",
            "SELECT COUNT(s) FROM T0",
            "SELECT MIN(s) FROM T0",
            "SELECT s, MAX(r) AS m FROM T0 GROUP BY s",
            "SELECT AVG(r) FROM T0",
        ] {
            assert!(matches!(plan(sql), Err(Error::Unsupported(_))), "{sql}");
        }
        assert!(matches!(plan("SELECT SUM(*) FROM T0"), Err(Error::Plan(_))));
        assert!(plan("SELECT T0.s FROM T0 JOIN H ON T0.s = H.out_s").is_ok());
        assert!(plan("SELECT COUNT(*), SUM(r) FROM T0").is_ok());
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(plan("SELECT s FROM nope"), Err(Error::Catalog(_))));
        assert!(matches!(plan("SELECT nope FROM T0"), Err(Error::Plan(_))));
    }

    #[test]
    fn cte_name_scopes_names() {
        let p = plan("WITH u AS (SELECT s FROM T0) SELECT u.s FROM u").unwrap();
        assert_eq!(p.schema().names(), vec!["s"]);
        assert!(plan("WITH u AS (SELECT s FROM T0) SELECT T0.s FROM u").is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan("SELECT s FROM T0 GROUP BY s HAVING COUNT(*) > 0 ORDER BY s").unwrap();
        let text = p.explain();
        assert!(text.contains("Scan T0"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Sort [1 keys]"));
    }
}

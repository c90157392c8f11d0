//! Query planning: AST → bound logical plan.
//!
//! The planner resolves names bottom-up, rewrites aggregate queries into an
//! explicit `Aggregate` node (replacing `GROUP BY`-matching subtrees and
//! aggregate calls in the projection/`HAVING` with column references), and
//! produces a tree of [`Plan`] nodes carrying [`BoundExpr`]s that the
//! executor can run directly.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{
    self, BinaryOp, Expr, JoinKind, OrderItem, Query, Select, SelectItem, SetExpr, TableRef,
};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::{bind, BoundExpr};
use crate::schema::{Facts, Field, RelSchema};
use crate::value::Value;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    /// `COUNT(*)` — counts rows, not non-null values.
    CountStar,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    fn from_call(name: &str, args: &[Expr]) -> Result<(AggFunc, Option<Expr>)> {
        let upper = name.to_ascii_uppercase();
        match (upper.as_str(), args) {
            ("COUNT", [Expr::Star]) => Ok((AggFunc::CountStar, None)),
            ("COUNT", [a]) => Ok((AggFunc::Count, Some(a.clone()))),
            ("SUM", [a]) => Ok((AggFunc::Sum, Some(a.clone()))),
            ("MIN", [a]) => Ok((AggFunc::Min, Some(a.clone()))),
            ("MAX", [a]) => Ok((AggFunc::Max, Some(a.clone()))),
            ("AVG", [a]) => Ok((AggFunc::Avg, Some(a.clone()))),
            _ => Err(Error::Plan(format!(
                "wrong number of arguments to aggregate `{name}`"
            ))),
        }
    }
}

/// One aggregate computation inside an `Aggregate` node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
}

/// Sort key bound against the input schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: BoundExpr,
    pub desc: bool,
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
    /// Base table scan (snapshot taken at execution time). `facts` is what
    /// the table knew of its columns when the statement was planned; a
    /// statement is planned and executed under one `&mut Database`, so the
    /// rows it scans are the rows the facts describe.
    Scan { table: String, schema: RelSchema, facts: Facts },
    /// Produces exactly one zero-column row (`SELECT` without `FROM`).
    One,
    Filter { input: Arc<Plan>, predicate: BoundExpr },
    Project { input: Arc<Plan>, exprs: Vec<BoundExpr>, schema: RelSchema },
    Join {
        left: Arc<Plan>,
        right: Arc<Plan>,
        kind: JoinKind,
        on: Option<BoundExpr>,
        schema: RelSchema,
    },
    Aggregate {
        input: Arc<Plan>,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        schema: RelSchema,
        /// Derived by the optimizer ([`super::keys`]), never written by the
        /// planner: no two input rows share a group key, every aggregate is
        /// a plain `SUM` over `DOUBLE`s. The node means what it always
        /// meant; the executor may stream it (`Plan::as_projection`).
        one_row_per_group: bool,
    },
    Sort { input: Arc<Plan>, keys: Vec<SortKey> },
    Limit { input: Arc<Plan>, limit: Option<u64>, offset: u64 },
    UnionAll { inputs: Vec<Arc<Plan>> },
    /// Renames the qualifier of the input's columns (subquery/CTE alias).
    Alias { input: Arc<Plan>, schema: RelSchema },
}

impl Plan {
    /// Output schema of this node.
    pub fn schema(&self) -> RelSchema {
        match self {
            Plan::Scan { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::Join { schema, .. }
            | Plan::Aggregate { schema, .. }
            | Plan::Alias { schema, .. } => schema.clone(),
            Plan::One => RelSchema::default(),
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.schema(),
            Plan::UnionAll { inputs } => inputs[0].schema(),
        }
    }

    /// Height of the plan tree. The translator emits one CTE per gate, so
    /// this is unbounded; [`depth_bound`] bounds it from the AST for callers
    /// that must pick a stack before a plan exists.
    pub fn depth(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::One => 0,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Alias { input, .. } => input.depth(),
            Plan::Join { left, right, .. } => left.depth().max(right.depth()),
            Plan::UnionAll { inputs } => {
                inputs.iter().map(|i| i.depth()).max().unwrap_or(0)
            }
        }
    }

    /// The input and expressions of a node the projection operator runs: a
    /// `Project`, or an `Aggregate` with one row per group — its group key,
    /// then each `SUM` of a single `DOUBLE` term, which is `0.0 + term` (the
    /// aggregate's sums start from `0.0` on every path).
    pub(crate) fn as_projection(&self) -> Option<(&Arc<Plan>, Cow<'_, [BoundExpr]>)> {
        match self {
            Plan::Project { input, exprs, .. } => Some((input, Cow::Borrowed(exprs))),
            Plan::Aggregate { input, group_by, aggs, one_row_per_group: true, .. } => {
                let sum_of_one = |agg: &AggExpr| BoundExpr::Binary {
                    left: Box::new(BoundExpr::Literal(Value::Float(0.0))),
                    op: BinaryOp::Add,
                    right: Box::new(agg.arg.clone().expect("SUM has an argument")),
                };
                Some((input, group_by.iter().cloned().chain(aggs.iter().map(sum_of_one)).collect()))
            }
            _ => None,
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
            Plan::One => "One".to_string(),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
            Plan::Join { kind, on, .. } => {
                format!("Join {kind:?}{}", if on.is_some() { " on" } else { "" })
            }
            Plan::Aggregate { group_by, aggs, one_row_per_group, .. } => format!(
                "Aggregate [{} keys, {} aggs]{}",
                group_by.len(),
                aggs.len(),
                streamed_note(*one_row_per_group)
            ),
            Plan::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
            Plan::Limit { limit, offset, .. } => format!("Limit {limit:?} offset {offset}"),
            Plan::UnionAll { inputs } => format!("UnionAll [{}]", inputs.len()),
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
            | Plan::Limit { input, .. }
            | Plan::Alias { input, .. } => input.explain_into(depth + 1, out),
            Plan::Join { left, right, .. } => {
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::UnionAll { inputs } => {
                for i in inputs {
                    i.explain_into(depth + 1, out);
                }
            }
            _ => {}
        }
    }
}

/// What `EXPLAIN` and `EXPLAIN ANALYZE` append to an aggregate's label: the
/// reason it built no table, when the optimizer proved one row per group.
pub(crate) fn streamed_note(one_row_per_group: bool) -> &'static str {
    if one_row_per_group {
        " (one row per group: streamed)"
    } else {
        ""
    }
}

/// CTEs visible to one query: its own `WITH` list so far, then the enclosing
/// queries' through `parent`. A frame holds only its own `WITH`'s names, so
/// entering a subquery copies nothing, a name already in the frame is a
/// duplicate, and a name found further out is shadowed.
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
    // The Alias a CTE or subquery is wrapped in, one more for a renamed
    // reference to it, then Sort and Limit.
    2 + usize::from(!query.order_by.is_empty())
        + usize::from(query.limit.is_some() || query.offset.is_some())
        + query.ctes.iter().map(|(_, q)| depth_bound(q)).sum::<usize>()
        + set_expr_depth_bound(&query.body)
}

fn set_expr_depth_bound(body: &SetExpr) -> usize {
    match body {
        SetExpr::UnionAll(l, r) => 1 + set_expr_depth_bound(l) + set_expr_depth_bound(r),
        SetExpr::Select(s) => {
            let subquery = |t: &TableRef| match t {
                TableRef::Subquery { query, .. } => depth_bound(query),
                TableRef::Named { .. } => 0,
            };
            // Leaf, Aggregate, Project; a RIGHT JOIN is a Join under a Project.
            3 + usize::from(s.distinct)
                + usize::from(s.where_clause.is_some())
                + usize::from(s.having.is_some())
                + s.from.as_ref().map_or(0, subquery)
                + s.joins
                    .iter()
                    .map(|j| 1 + usize::from(j.kind == JoinKind::Right) + subquery(&j.table))
                    .sum::<usize>()
        }
    }
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

    let mut plan = plan_set_expr(&query.body, catalog, &scope)?;

    if !query.order_by.is_empty() {
        let schema = plan.schema();
        let keys = query
            .order_by
            .iter()
            .map(|item| bind_order_item(item, &schema))
            .collect::<Result<Vec<_>>>()?;
        plan = Plan::Sort { input: Arc::new(plan), keys };
    }
    if query.limit.is_some() || query.offset.is_some() {
        plan = Plan::Limit {
            input: Arc::new(plan),
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
        };
    }
    Ok(plan)
}

/// ORDER BY items may be output-column references, arbitrary expressions over
/// the output schema, or 1-based ordinals (`ORDER BY 2`).
fn bind_order_item(item: &OrderItem, schema: &RelSchema) -> Result<SortKey> {
    if let Expr::Literal(ast::Literal::Int(n)) = &item.expr {
        let idx = *n;
        if idx < 1 || idx as usize > schema.len() {
            return Err(Error::Plan(format!("ORDER BY ordinal {idx} out of range")));
        }
        return Ok(SortKey { expr: BoundExpr::Column(idx as usize - 1), desc: item.desc });
    }
    match bind(&item.expr, schema) {
        Ok(expr) => Ok(SortKey { expr, desc: item.desc }),
        Err(first_err) => {
            // Projection output columns are unqualified; allow `t.col` to
            // fall back to the bare output name `col` (standard SQL permits
            // ordering by input columns that survive the projection).
            if let Expr::Column { table: Some(_), name } = &item.expr {
                if let Ok(idx) = schema.resolve(None, name) {
                    return Ok(SortKey { expr: BoundExpr::Column(idx), desc: item.desc });
                }
            }
            Err(first_err)
        }
    }
}

fn plan_set_expr(body: &SetExpr, catalog: &Catalog, scope: &CteScope) -> Result<Plan> {
    match body {
        SetExpr::Select(select) => plan_select(select, catalog, scope),
        SetExpr::UnionAll(left, right) => {
            let l = plan_set_expr(left, catalog, scope)?;
            let r = plan_set_expr(right, catalog, scope)?;
            if l.schema().len() != r.schema().len() {
                return Err(Error::Plan(format!(
                    "UNION ALL arity mismatch: {} vs {} columns",
                    l.schema().len(),
                    r.schema().len()
                )));
            }
            // Flatten nested unions for cheaper execution.
            let mut inputs = Vec::new();
            for side in [l, r] {
                match side {
                    Plan::UnionAll { inputs: nested } => inputs.extend(nested),
                    other => inputs.push(Arc::new(other)),
                }
            }
            Ok(Plan::UnionAll { inputs })
        }
    }
}

fn plan_table_ref(tref: &TableRef, catalog: &Catalog, scope: &CteScope) -> Result<Arc<Plan>> {
    match tref {
        TableRef::Named { name, alias } => {
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
            let mut schema = table.schema();
            if let Some(a) = alias {
                schema = schema.with_relation(a);
            }
            let facts = table.column_facts();
            Ok(Arc::new(Plan::Scan { table: table.name().to_string(), schema, facts }))
        }
        TableRef::Subquery { query, alias } => {
            let plan = plan_query_scoped(query, catalog, scope)?;
            let schema = plan.schema().with_relation(alias);
            Ok(Arc::new(Plan::Alias { input: Arc::new(plan), schema }))
        }
    }
}

fn plan_select(select: &Select, catalog: &Catalog, scope: &CteScope) -> Result<Plan> {
    // FROM and JOINs.
    let mut plan = match &select.from {
        Some(tref) => plan_table_ref(tref, catalog, scope)?,
        None => Arc::new(Plan::One),
    };
    for join in &select.joins {
        let right = plan_table_ref(&join.table, catalog, scope)?;
        if join.kind == JoinKind::Right {
            // RIGHT JOIN ≡ LEFT JOIN with the inputs swapped, followed by a
            // projection that restores the written column order. Rewriting
            // here means neither executor needs a right-outer operator, and
            // the batch hash join's left-outer machinery covers both
            // directions.
            let left_schema = plan.schema();
            let right_schema = right.schema();
            let (llen, rlen) = (left_schema.len(), right_schema.len());
            // Bind the ON condition against the *swapped* input order; names
            // resolve by qualifier, so indices land in the swapped layout.
            let swapped_schema = right_schema.join(&left_schema);
            let on = match &join.on {
                Some(e) => Some(bind(e, &swapped_schema)?),
                None => None,
            };
            let swapped = Plan::Join {
                left: right,
                right: plan,
                kind: JoinKind::Left,
                on,
                schema: swapped_schema,
            };
            let exprs: Vec<BoundExpr> = (rlen..rlen + llen)
                .chain(0..rlen)
                .map(BoundExpr::Column)
                .collect();
            plan = Arc::new(Plan::Project {
                input: Arc::new(swapped),
                exprs,
                schema: left_schema.join(&right_schema),
            });
            continue;
        }
        let schema = plan.schema().join(&right.schema());
        let on = match &join.on {
            Some(e) => Some(bind(e, &schema)?),
            None => None,
        };
        plan = Arc::new(Plan::Join { left: plan, right, kind: join.kind, on, schema });
    }

    // WHERE.
    if let Some(w) = &select.where_clause {
        if w.contains_aggregate() {
            return Err(Error::Plan("aggregates are not allowed in WHERE".into()));
        }
        let predicate = bind(w, &plan.schema())?;
        plan = Arc::new(Plan::Filter { input: plan, predicate });
    }

    // Expand wildcards in the projection.
    let input_schema = plan.schema();
    let mut items: Vec<(Expr, Option<String>)> = Vec::new();
    for item in &select.projection {
        match item {
            SelectItem::Wildcard => {
                for f in &input_schema.fields {
                    items.push((
                        Expr::Column { table: f.relation.clone(), name: f.name.clone() },
                        Some(f.name.clone()),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(rel) => {
                let idxs = input_schema.relation_indices(rel);
                if idxs.is_empty() {
                    return Err(Error::Plan(format!("unknown relation `{rel}` in `{rel}.*`")));
                }
                for i in idxs {
                    let f = &input_schema.fields[i];
                    items.push((
                        Expr::Column { table: f.relation.clone(), name: f.name.clone() },
                        Some(f.name.clone()),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
        }
    }

    let has_aggs = !select.group_by.is_empty()
        || items.iter().any(|(e, _)| e.contains_aggregate())
        || select.having.as_ref().is_some_and(Expr::contains_aggregate);

    let (plan, proj_exprs, proj_schema) = if has_aggs {
        plan_aggregate(plan, select, &items, &input_schema)?
    } else {
        if select.having.is_some() {
            return Err(Error::Plan("HAVING requires GROUP BY or aggregates".into()));
        }
        let mut exprs = Vec::with_capacity(items.len());
        let mut fields = Vec::with_capacity(items.len());
        for (e, alias) in &items {
            exprs.push(bind(e, &input_schema)?);
            fields.push(Field::new(None, &output_name(e, alias)));
        }
        (plan, exprs, RelSchema::new(fields))
    };

    let mut plan = Plan::Project { input: plan, exprs: proj_exprs, schema: proj_schema };

    if select.distinct {
        // DISTINCT ≡ GROUP BY all output columns with no aggregates; this
        // reuses the aggregation operator's spill machinery for free.
        let schema = plan.schema();
        let group_by = (0..schema.len()).map(BoundExpr::Column).collect();
        plan = Plan::Aggregate {
            input: Arc::new(plan),
            group_by,
            aggs: vec![],
            schema,
            one_row_per_group: false,
        };
    }

    Ok(plan)
}

/// Build the `Aggregate` node and rewrite projection/`HAVING` over its output.
///
/// Returns (plan including any HAVING filter, projection exprs, projection
/// schema).
fn plan_aggregate(
    input: Arc<Plan>,
    select: &Select,
    items: &[(Expr, Option<String>)],
    input_schema: &RelSchema,
) -> Result<(Arc<Plan>, Vec<BoundExpr>, RelSchema)> {
    // 1. Bind group-by expressions against the input.
    let mut group_bound = Vec::with_capacity(select.group_by.len());
    for g in &select.group_by {
        if g.contains_aggregate() {
            return Err(Error::Plan("aggregates are not allowed in GROUP BY".into()));
        }
        group_bound.push(bind(g, input_schema)?);
    }

    // 2. Collect aggregate calls from projection and HAVING (deduplicated
    //    structurally) and rewrite both over the aggregate output schema.
    let mut collected: Vec<(Expr, AggExpr)> = Vec::new();
    let mut rewritten_items = Vec::with_capacity(items.len());
    for (e, alias) in items {
        let r = rewrite_over_aggregate(e, &select.group_by, &mut collected, input_schema)?;
        rewritten_items.push((r, e, alias));
    }
    let rewritten_having = match &select.having {
        Some(h) => Some(rewrite_over_aggregate(h, &select.group_by, &mut collected, input_schema)?),
        None => None,
    };

    // 3. The aggregate node's output: group keys then agg results, with
    //    synthetic names the rewrite step referenced.
    let mut agg_fields = Vec::new();
    for i in 0..group_bound.len() {
        agg_fields.push(Field::new(None, &format!("__g{i}")));
    }
    for i in 0..collected.len() {
        agg_fields.push(Field::new(None, &format!("__a{i}")));
    }
    let agg_schema = RelSchema::new(agg_fields);
    let aggs = collected.into_iter().map(|(_, a)| a).collect();

    let mut plan = Arc::new(Plan::Aggregate {
        input,
        group_by: group_bound,
        aggs,
        schema: agg_schema.clone(),
        one_row_per_group: false,
    });

    if let Some(h) = rewritten_having {
        let predicate = bind(&h, &agg_schema)?;
        plan = Arc::new(Plan::Filter { input: plan, predicate });
    }

    let mut exprs = Vec::with_capacity(rewritten_items.len());
    let mut fields = Vec::with_capacity(rewritten_items.len());
    for (rewritten, original, alias) in rewritten_items {
        exprs.push(bind(&rewritten, &agg_schema)?);
        fields.push(Field::new(None, &output_name(original, alias)));
    }
    Ok((plan, exprs, RelSchema::new(fields)))
}

/// Rewrite `expr` so it refers to the aggregate output schema:
/// subtrees structurally equal to a GROUP BY expression become `__gN`,
/// aggregate calls become `__aN`, anything else recurses. A bare column that
/// survives to the leaves (i.e. is not part of any group expression) is a
/// semantic error, matching strict SQL GROUP BY rules.
fn rewrite_over_aggregate(
    expr: &Expr,
    group_by: &[Expr],
    collected: &mut Vec<(Expr, AggExpr)>,
    input_schema: &RelSchema,
) -> Result<Expr> {
    // Structural match against a grouping expression?
    for (i, g) in group_by.iter().enumerate() {
        if exprs_equivalent(expr, g) {
            return Ok(Expr::Column { table: None, name: format!("__g{i}") });
        }
    }
    match expr {
        Expr::Function { name, args, distinct } if ast::is_aggregate_name(name) => {
            if args.iter().any(Expr::contains_aggregate) {
                return Err(Error::Plan("nested aggregate calls are not allowed".into()));
            }
            let (func, arg_ast) = AggFunc::from_call(name, args)?;
            let arg = match &arg_ast {
                Some(a) => Some(bind(a, input_schema)?),
                None => None,
            };
            let agg = AggExpr { func, arg, distinct: *distinct };
            // Deduplicate structurally identical aggregate calls.
            let idx = match collected.iter().position(|(e, _)| exprs_equivalent(e, expr)) {
                Some(i) => i,
                None => {
                    collected.push((expr.clone(), agg));
                    collected.len() - 1
                }
            };
            Ok(Expr::Column { table: None, name: format!("__a{idx}") })
        }
        Expr::Column { table, name } => Err(Error::Plan(format!(
            "column `{}` must appear in GROUP BY or inside an aggregate",
            match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            }
        ))),
        Expr::Literal(_) | Expr::Star => Ok(expr.clone()),
        Expr::Unary { op, expr: inner } => Ok(Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_over_aggregate(inner, group_by, collected, input_schema)?),
        }),
        Expr::Binary { left, op, right } => Ok(Expr::Binary {
            left: Box::new(rewrite_over_aggregate(left, group_by, collected, input_schema)?),
            op: *op,
            right: Box::new(rewrite_over_aggregate(right, group_by, collected, input_schema)?),
        }),
        Expr::Function { name, args, distinct } => Ok(Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_over_aggregate(a, group_by, collected, input_schema))
                .collect::<Result<_>>()?,
            distinct: *distinct,
        }),
        Expr::Cast { expr: inner, ty } => Ok(Expr::Cast {
            expr: Box::new(rewrite_over_aggregate(inner, group_by, collected, input_schema)?),
            ty: *ty,
        }),
        Expr::IsNull { expr: inner, negated } => Ok(Expr::IsNull {
            expr: Box::new(rewrite_over_aggregate(inner, group_by, collected, input_schema)?),
            negated: *negated,
        }),
        Expr::InList { expr: inner, list, negated } => Ok(Expr::InList {
            expr: Box::new(rewrite_over_aggregate(inner, group_by, collected, input_schema)?),
            list: list
                .iter()
                .map(|e| rewrite_over_aggregate(e, group_by, collected, input_schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Case { operand, branches, else_branch } => Ok(Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(rewrite_over_aggregate(
                    o,
                    group_by,
                    collected,
                    input_schema,
                )?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(c, r)| {
                    Ok((
                        rewrite_over_aggregate(c, group_by, collected, input_schema)?,
                        rewrite_over_aggregate(r, group_by, collected, input_schema)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_branch: match else_branch {
                Some(e) => Some(Box::new(rewrite_over_aggregate(
                    e,
                    group_by,
                    collected,
                    input_schema,
                )?)),
                None => None,
            },
        }),
        Expr::Paren(inner) => rewrite_over_aggregate(inner, group_by, collected, input_schema),
    }
}

/// Structural equivalence ignoring redundant parentheses.
fn exprs_equivalent(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Paren(x), y) => exprs_equivalent(x, y),
        (x, Expr::Paren(y)) => exprs_equivalent(x, y),
        (Expr::Unary { op: oa, expr: ea }, Expr::Unary { op: ob, expr: eb }) => {
            oa == ob && exprs_equivalent(ea, eb)
        }
        (
            Expr::Binary { left: la, op: oa, right: ra },
            Expr::Binary { left: lb, op: ob, right: rb },
        ) => oa == ob && exprs_equivalent(la, lb) && exprs_equivalent(ra, rb),
        (
            Expr::Function { name: na, args: aa, distinct: da },
            Expr::Function { name: nb, args: ab, distinct: db },
        ) => {
            na.eq_ignore_ascii_case(nb)
                && da == db
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| exprs_equivalent(x, y))
        }
        (Expr::Cast { expr: ea, ty: ta }, Expr::Cast { expr: eb, ty: tb }) => {
            ta == tb && exprs_equivalent(ea, eb)
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
fn output_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        other => other.to_string(),
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
        let e = plan("WITH a AS (SELECT s FROM T0), A AS (SELECT r FROM T0) SELECT * FROM a")
            .unwrap_err();
        assert!(matches!(e, Error::Plan(m) if m.contains("duplicate CTE name `A`")));
    }

    #[test]
    fn inner_with_may_shadow_an_outer_cte() {
        let p = plan(
            "WITH a AS (SELECT s FROM T0) \
             SELECT * FROM (WITH a AS (SELECT r, i FROM T0) SELECT * FROM a) AS u, a",
        )
        .unwrap();
        // `u` sees the inner `a`, the outer FROM item the outer one.
        assert_eq!(p.schema().names(), vec!["r", "i", "s"]);
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
            "SELECT 1",
            "SELECT DISTINCT s FROM T0 WHERE s > 0 GROUP BY s HAVING COUNT(*) > 0 \
             ORDER BY s LIMIT 1",
            "SELECT * FROM T0 RIGHT JOIN H ON H.in_s = T0.s JOIN H AS g ON g.in_s = T0.s",
            "SELECT s FROM T0 UNION ALL SELECT s FROM (SELECT s FROM T0 ORDER BY s) AS u",
            "WITH T1 AS (SELECT s, SUM(T0.r) AS r FROM T0 JOIN H ON H.in_s = T0.s GROUP BY s), \
             T2 AS (SELECT x.s FROM T1 AS x ORDER BY 1 LIMIT 3) SELECT * FROM T2 AS y",
        ] {
            let ast::Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
            let depth = plan_query(&q, &catalog()).unwrap().depth();
            assert!(depth_bound(&q) >= depth, "{sql}: {} < {depth}", depth_bound(&q));
        }
    }

    #[test]
    fn wildcard_expansion() {
        let p = plan("SELECT * FROM T0").unwrap();
        assert_eq!(p.schema().names(), vec!["s", "r", "i"]);
        let p = plan("SELECT H.* FROM T0 JOIN H ON H.in_s = T0.s").unwrap();
        assert_eq!(p.schema().names(), vec!["in_s", "out_s", "r", "i"]);
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
    fn order_by_ordinal_and_alias() {
        assert!(plan("SELECT s AS q FROM T0 ORDER BY q").is_ok());
        assert!(plan("SELECT s, r FROM T0 ORDER BY 2 DESC").is_ok());
        assert!(plan("SELECT s FROM T0 ORDER BY 5").is_err());
    }

    #[test]
    fn select_without_from() {
        let p = plan("SELECT 1 AS one, 2 AS two").unwrap();
        assert_eq!(p.schema().names(), vec!["one", "two"]);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        assert!(plan("SELECT s FROM T0 UNION ALL SELECT s, r FROM T0").is_err());
        assert!(plan("SELECT s FROM T0 UNION ALL SELECT in_s FROM H").is_ok());
    }

    #[test]
    fn distinct_becomes_aggregate() {
        let p = plan("SELECT DISTINCT s FROM T0").unwrap();
        assert!(matches!(p, Plan::Aggregate { ref aggs, .. } if aggs.is_empty()));
    }

    #[test]
    fn where_with_aggregate_rejected() {
        assert!(plan("SELECT s FROM T0 WHERE SUM(r) > 1").is_err());
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(plan("SELECT * FROM nope"), Err(Error::Catalog(_))));
        assert!(matches!(plan("SELECT nope FROM T0"), Err(Error::Plan(_))));
    }

    #[test]
    fn subquery_alias_scopes_names() {
        let p = plan("SELECT u.s FROM (SELECT s FROM T0) AS u").unwrap();
        assert_eq!(p.schema().names(), vec!["s"]);
        assert!(plan("SELECT T0.s FROM (SELECT s FROM T0) AS u").is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan("SELECT s FROM T0 WHERE s > 0 ORDER BY s LIMIT 1").unwrap();
        let text = p.explain();
        assert!(text.contains("Scan T0"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Limit"));
    }
}

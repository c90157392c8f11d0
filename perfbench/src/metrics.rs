//! The names this benchmark fixes: every metric with its unit, direction
//! and (end to end) bound, plus the statistics the values are made from.
//! `BENCHMARK.json` lists the same names; `--smoke` checks that they agree.

use serde::{Number, Value};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

/// What a user of `qymera run` sees, per workload. `verified_share` is the
/// complement of the share of failed passes, because a gated metric must
/// never be 0.
pub const END_TO_END: [MetricDef; 5] = [
    gated("pass_ms_min", "ms", false, 0.25),
    gated("setup_s", "s", false, 0.25),
    gated("peak_mem_bytes", "bytes", false, 0.02),
    gated("peak_rss_bytes", "bytes", false, 0.10),
    gated("verified_share", "share", true, 0.005),
];

/// One traced run's split of a pass into layers. Where a workload does not
/// enter a layer the value is 0.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("circuit.build_ms", "ms"),
    layer("circuit.gates", "count"),
    layer("circuit.qubits", "count"),
    layer("translate.lower_ms", "ms"),
    layer("translate.load_ms", "ms"),
    layer("translate.sqlgen_ms", "ms"),
    layer("translate.ops", "count"),
    layer("translate.sql_bytes", "bytes"),
    layer("translate.gate_tables", "count"),
    layer("translate.gate_rows", "count"),
    layer("sqldb.parser.parse_ms", "ms"),
    layer("sqldb.parser.statements", "count"),
    layer("sqldb.plan.plan_ms", "ms"),
    layer("sqldb.plan.optimize_ms", "ms"),
    layer("sqldb.plan.nodes", "count"),
    layer("sqldb.plan.depth", "count"),
    layer("sqldb.plan.self_share", "share"),
    layer("sqldb.exec.execute_ms", "ms"),
    layer("sqldb.exec.execute_ms_parN", "ms"),
    layer("sqldb.exec.state_rows_sum", "count"),
    layer("sqldb.exec.state_rows_peak", "count"),
    layer("sqldb.exec.ns_per_state_row", "ns"),
    layer("sqldb.exec.rows_out", "count"),
    layer("sqldb.exec.self_share", "share"),
    layer("sqldb.table.ctas_ms", "ms"),
    layer("sqldb.table.drop_ms", "ms"),
    layer("sqldb.table.readback_ms", "ms"),
    layer("sqldb.table.rows_written", "count"),
    layer("sqldb.table.peak_table_bytes", "bytes"),
    layer("sqldb.storage.spill_files", "count"),
    layer("sqldb.storage.spill_bytes", "bytes"),
    layer("sqldb.storage.spill_write_amp", "ratio"),
    layer("sqldb.storage.budget_overshoot_bytes", "bytes"),
    layer("sqldb.storage.wal_bytes", "bytes"),
    layer("sqldb.storage.checkpoint_bytes", "bytes"),
    layer("sqldb.storage.write_amp", "ratio"),
    layer("sqldb.storage.durable_overhead_ms", "ms"),
    layer("sqldb.storage.checkpoint_ms", "ms"),
    layer("sqldb.storage.recover_ms", "ms"),
    layer("sqldb.txn.commit_ms", "ms"),
    layer("sqldb.txn.rollback_to_ms", "ms"),
    layer("sqldb.txn.abort_ms", "ms"),
    layer("sim.sparse_pass_ms", "ms"),
    layer("sim.statevector_pass_ms", "ms"),
    layer("sim.sql_over_sparse", "ratio"),
    layer("core.collect_ms", "ms"),
    layer("core.engine_overhead_ms", "ms"),
    layer("core.pass_ms_p50", "ms"),
    layer("core.pass_ms_tail", "ms"),
    layer("core.pass_tail_percentile", "%"),
    layer("core.pass_ms_iqr", "ms"),
    MetricDef {
        name: "core.pass_samples",
        unit: "count",
        higher_is_better: true,
        bound: None,
    },
    layer("core.traced_pass_ms", "ms"),
    layer("core.unattributed_share", "share"),
    layer("core.trace_overhead_share", "share"),
    layer("core.shape_violations", "count"),
    layer("core.traced_passes", "count"),
];

/// Measured values in the order they were set.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric of `defs`;
    /// a metric nobody set is an error, so that a forgotten one is noticed.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for def in defs {
            let value = self
                .get(def.name)
                .ok_or_else(|| format!("{} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("{} is {value}", def.name));
            }
            fields.push((
                def.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Num(Number::Float(value))),
                    ("unit".into(), Value::Str(def.unit.into())),
                ]),
            ));
        }
        Ok(Value::Object(fields))
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver applies to the runs of one metric.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: below the second or above the last but one value
        // Python extrapolates.
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, and the value there.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let percentile = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let index = ((n as f64 * percentile / 100.0).ceil() as usize).clamp(1, n.max(1)) - 1;
    (percentile, v.get(index).copied().unwrap_or(0.0))
}

/// How much worse `second` is than `first`, as a share of `first`.
pub fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    let delta = if def.higher_is_better {
        first - second
    } else {
        second - first
    };
    delta / first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 135.0));
        assert_eq!(tail(&v[..12]).0, 50.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "{} twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}

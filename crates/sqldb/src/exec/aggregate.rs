//! Aggregate accumulators and the partial-row format they spill in.
//!
//! Every gate application is one `GROUP BY` over the joined state (Fig. 2c),
//! and for dense states the group table is the *entire next quantum state*,
//! so the aggregate in [`super::vector`] spills: under memory pressure it
//! flushes its table into `PARTITIONS` hash partitions chosen by
//! `partition_of` — the fast table as typed blocks, the generic table as
//! *partial aggregate rows* (group key values followed by each
//! accumulator's `Acc::write_partial` slice) — and merges each partition
//! back (`Acc::consume_partial` for the rows), re-partitioning up to
//! `MAX_DEPTH` levels with a depth-salted hash. `Acc` is also what the
//! reference interpreter ([`crate::reference`]) folds with, one row at a
//! time.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::plan::logical::{AggExpr, AggFunc};
use crate::storage::spill::{row_bytes, Row};
use crate::value::{GroupKey, Value};

pub(crate) const PARTITIONS: usize = 16;
pub(crate) const MAX_DEPTH: u32 = 4;

/// Accumulator state for one aggregate in one group.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Sum(Option<Value>),
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
    /// DISTINCT aggregates keep the deduplicated inputs. The set spills as a
    /// count-prefixed value list inside the standard partial row (see
    /// [`Acc::write_partial`]), so DISTINCT participates in partition
    /// spilling and parallel per-worker merging like every other aggregate.
    Distinct { func: AggFunc, seen: HashMap<GroupKey, Value> },
}

impl Acc {
    pub(crate) fn new(agg: &AggExpr) -> Acc {
        if agg.distinct {
            return Acc::Distinct { func: agg.func, seen: HashMap::new() };
        }
        match agg.func {
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Count | AggFunc::CountStar => Acc::Count(0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    pub(crate) fn update(&mut self, arg: Option<Value>) -> Result<()> {
        match self {
            Acc::Sum(state) => {
                let v = arg.expect("SUM requires an argument");
                if !v.is_null() {
                    Self::sum_add(state, &v)?;
                }
            }
            Acc::Count(n) => match arg {
                // COUNT(*) — every row counts.
                None => *n += 1,
                Some(v) if !v.is_null() => *n += 1,
                Some(_) => {}
            },
            Acc::Min(state) => {
                let v = arg.expect("MIN requires an argument");
                if v.is_null() {
                    return Ok(());
                }
                let replace = match state {
                    Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Less,
                    None => true,
                };
                if replace {
                    *state = Some(v);
                }
            }
            Acc::Max(state) => {
                let v = arg.expect("MAX requires an argument");
                if v.is_null() {
                    return Ok(());
                }
                let replace = match state {
                    Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Greater,
                    None => true,
                };
                if replace {
                    *state = Some(v);
                }
            }
            Acc::Avg { sum, count } => {
                let v = arg.expect("AVG requires an argument");
                if v.is_null() {
                    return Ok(());
                }
                *sum += v.as_f64()?;
                *count += 1;
            }
            Acc::Distinct { seen, .. } => {
                let v = arg.expect("DISTINCT aggregate requires an argument");
                if v.is_null() {
                    return Ok(());
                }
                Self::insert_distinct(seen, v);
            }
        }
        Ok(())
    }

    /// `state += v` for SUM. A `DOUBLE` sum starts from `0.0`, as the `f64`
    /// lanes of the aggregate's fast table do, so a group whose only term is
    /// `-0.0` sums to `+0.0` on every path: fold, partial row, worker merge.
    fn sum_add(state: &mut Option<Value>, v: &Value) -> Result<()> {
        *state = Some(match (state.take(), v) {
            (Some(cur), v) => cur.add(v)?,
            (None, Value::Float(f)) => Value::Float(0.0 + f),
            (None, v) => v.clone(),
        });
        Ok(())
    }

    /// Insert one value into a distinct set, keeping a *deterministic*
    /// representative when numerically-equal values of different
    /// representations share a [`GroupKey`] (`Int 2` vs `Float 2.0`): the
    /// narrower representation wins, independent of arrival order. First-
    /// seen-wins would make `SUM(DISTINCT …)`'s result type depend on input
    /// order — and therefore on worker count under the parallel merge.
    fn insert_distinct(seen: &mut HashMap<GroupKey, Value>, v: Value) {
        fn repr_rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Big(_) => 1,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Null => 4,
            }
        }
        match seen.entry(v.group_key()) {
            Entry::Occupied(mut e) => {
                if repr_rank(&v) < repr_rank(e.get()) {
                    e.insert(v);
                }
            }
            Entry::Vacant(e) => {
                e.insert(v);
            }
        }
    }

    /// Serialize this accumulator's partial state onto `out`. Fixed-shape
    /// accumulators contribute one value (two for AVG); DISTINCT contributes
    /// a count followed by that many deduplicated values, making the record
    /// self-describing for [`Acc::consume_partial`].
    pub(crate) fn write_partial(&self, out: &mut Row) -> Result<()> {
        match self {
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => {
                out.push(v.clone().unwrap_or(Value::Null))
            }
            Acc::Count(n) => out.push(Value::Int(*n)),
            Acc::Avg { sum, count } => {
                out.push(Value::Float(*sum));
                out.push(Value::Int(*count));
            }
            Acc::Distinct { seen, .. } => {
                out.push(Value::Int(seen.len() as i64));
                // Serialize in total order, not HashMap order, so spill
                // records are deterministic run to run.
                out.extend(Self::sorted_distinct(seen).into_iter().cloned());
            }
        }
        Ok(())
    }

    /// The distinct set's values in [`Value::cmp_total`] order. DISTINCT
    /// folds (SUM/AVG) and spill records must not depend on HashMap
    /// iteration order — float accumulation order shows in the last ulp,
    /// and a per-instance-seeded hash would make repeated runs differ.
    fn sorted_distinct(seen: &HashMap<GroupKey, Value>) -> Vec<&Value> {
        let mut vals: Vec<&Value> = seen.values().collect();
        vals.sort_by(|a, b| a.cmp_total(b));
        vals
    }

    /// Merge one accumulator's slice of a partial row (the inverse of
    /// [`Acc::write_partial`]), reading from `row[*pos..]` and advancing
    /// `*pos` past the consumed values.
    pub(crate) fn consume_partial(&mut self, row: &[Value], pos: &mut usize) -> Result<()> {
        match self {
            Acc::Sum(state) => {
                let v = &row[*pos];
                *pos += 1;
                if !v.is_null() {
                    Self::sum_add(state, v)?;
                }
            }
            Acc::Count(n) => {
                *n += row[*pos].as_i64()?;
                *pos += 1;
            }
            Acc::Min(state) => {
                let v = &row[*pos];
                *pos += 1;
                if !v.is_null() {
                    let replace = match state {
                        Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Less,
                        None => true,
                    };
                    if replace {
                        *state = Some(v.clone());
                    }
                }
            }
            Acc::Max(state) => {
                let v = &row[*pos];
                *pos += 1;
                if !v.is_null() {
                    let replace = match state {
                        Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Greater,
                        None => true,
                    };
                    if replace {
                        *state = Some(v.clone());
                    }
                }
            }
            Acc::Avg { sum, count } => {
                *sum += row[*pos].as_f64()?;
                *count += row[*pos + 1].as_i64()?;
                *pos += 2;
            }
            Acc::Distinct { seen, .. } => {
                let n = row[*pos].as_i64()? as usize;
                if row.len() < *pos + 1 + n {
                    return Err(Error::Io("truncated DISTINCT partial record".into()));
                }
                for v in &row[*pos + 1..*pos + 1 + n] {
                    Self::insert_distinct(seen, v.clone());
                }
                *pos += 1 + n;
            }
        }
        Ok(())
    }

    /// Merge another accumulator of the same shape into this one (used when
    /// the parallel aggregate combines per-worker tables). Direct
    /// variant-to-variant merges — no partial-row round trip, which would
    /// allocate per group per worker. DISTINCT accumulators merge by set
    /// union; mismatched shapes cannot occur because every table derives its
    /// accumulators from the same aggregate list.
    pub(crate) fn merge_from(&mut self, other: &Acc) -> Result<()> {
        match (&mut *self, other) {
            (Acc::Sum(state), Acc::Sum(v)) => {
                if let Some(v) = v {
                    Self::sum_add(state, v)?;
                }
            }
            (Acc::Count(n), Acc::Count(m)) => *n += m,
            (Acc::Min(state), Acc::Min(v)) => {
                if let Some(v) = v {
                    let replace = match state {
                        Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Less,
                        None => true,
                    };
                    if replace {
                        *state = Some(v.clone());
                    }
                }
            }
            (Acc::Max(state), Acc::Max(v)) => {
                if let Some(v) = v {
                    let replace = match state {
                        Some(cur) => v.cmp_total(cur) == std::cmp::Ordering::Greater,
                        None => true,
                    };
                    if replace {
                        *state = Some(v.clone());
                    }
                }
            }
            (Acc::Avg { sum, count }, Acc::Avg { sum: s, count: c }) => {
                *sum += s;
                *count += c;
            }
            (Acc::Distinct { seen, .. }, Acc::Distinct { seen: other, .. }) => {
                for v in other.values() {
                    Self::insert_distinct(seen, v.clone());
                }
            }
            _ => {
                return Err(Error::Eval(
                    "internal: mismatched accumulator shapes in parallel merge".into(),
                ))
            }
        }
        Ok(())
    }

    pub(crate) fn finalize(self) -> Result<Value> {
        Ok(match self {
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Count(n) => Value::Int(n),
            Acc::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            Acc::Distinct { func, seen } => match func {
                AggFunc::Count => Value::Int(seen.len() as i64),
                AggFunc::Sum => {
                    // Fold in total order (see `sorted_distinct`): float
                    // sums are then bit-identical across runs, execution
                    // paths, and worker counts.
                    let mut acc: Option<Value> = None;
                    for v in Self::sorted_distinct(&seen) {
                        Self::sum_add(&mut acc, v)?;
                    }
                    acc.unwrap_or(Value::Null)
                }
                AggFunc::Avg => {
                    if seen.is_empty() {
                        Value::Null
                    } else {
                        let mut s = 0.0;
                        for v in Self::sorted_distinct(&seen) {
                            s += v.as_f64()?;
                        }
                        Value::Float(s / seen.len() as f64)
                    }
                }
                AggFunc::Min => seen
                    .values()
                    .cloned()
                    .min_by(|a, b| a.cmp_total(b))
                    .unwrap_or(Value::Null),
                AggFunc::Max => seen
                    .values()
                    .cloned()
                    .max_by(|a, b| a.cmp_total(b))
                    .unwrap_or(Value::Null),
                AggFunc::CountStar => Value::Int(seen.len() as i64),
            },
        })
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Acc::Distinct { seen, .. } => {
                48 + seen.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes() + 16).sum::<usize>()
            }
            _ => 48,
        }
    }
}

pub(crate) type GroupState = (Vec<Value>, Vec<Acc>); // (representative key values, accumulators)

/// Bytes one group charges against the budget while it sits in a table.
pub(crate) fn entry_bytes(reps: &[Value], accs: &[Acc]) -> usize {
    row_bytes(reps) + accs.iter().map(Acc::heap_bytes).sum::<usize>() + 64
}

/// Spill partition of a group at re-partitioning level `depth`. A single
/// integer key goes through [`partition_of_int`], so the fast table's block
/// writer and the generic table's row writer of one operator agree.
pub(crate) fn partition_of(keys: &[GroupKey], depth: u32) -> usize {
    if let [GroupKey::Int(k)] = keys {
        return partition_of_int(*k, depth);
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // Salt by depth so recursive re-partitioning actually redistributes.
    (0x9e3779b97f4a7c15u64 ^ u64::from(depth)).hash(&mut h);
    keys.hash(&mut h);
    (h.finish() as usize) % PARTITIONS
}

/// [`partition_of`] for the fast lane's one `INTEGER` key: the splitmix64
/// finalizer over the key salted by `depth`. Deliberately not the Fibonacci
/// multiply of [`IntGroupTable`]: a partition chosen by those top bits would
/// put all of its keys into one sixteenth of the merge table's slots.
pub(crate) fn partition_of_int(key: i64, depth: u32) -> usize {
    let mut h = (key as u64).wrapping_add(u64::from(depth).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((h ^ (h >> 31)) % PARTITIONS as u64) as usize
}

/// Group lookup of the aggregate's fast lane: `INTEGER` key → dense group
/// id, ids handed out in first-seen order. Open addressing over a
/// power-of-two `slots` (multiplicative hash, linear probing, at most half
/// full), so it holds O(groups) entries whatever the keys are — the 46-bit
/// key of a one-row state costs the 16-slot floor.
#[derive(Debug, Default)]
pub(crate) struct IntGroupTable {
    /// Group ids ([`Self::EMPTY`] when free), indexed by probe position.
    slots: Vec<u32>,
    /// The key of each group, in first-seen order.
    keys: Vec<i64>,
}

impl IntGroupTable {
    const EMPTY: u32 = u32::MAX;

    /// The keys seen, in first-seen order (index = group id).
    pub(crate) fn keys(&self) -> &[i64] {
        &self.keys
    }

    /// Consume the table, keeping only its keys.
    pub(crate) fn into_keys(self) -> Vec<i64> {
        self.keys
    }

    /// Forget every group, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.fill(Self::EMPTY);
    }

    /// The group of `key`, created if absent; the flag says whether it was.
    #[inline]
    pub(crate) fn find_or_insert(&mut self, key: i64) -> (u32, bool) {
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.rehash(self.keys.len() + 1);
        }
        let mut pos = self.home(key);
        loop {
            let g = self.slots[pos];
            if g == Self::EMPTY {
                self.slots[pos] = self.push_key(key);
                return (self.slots[pos], true);
            }
            if self.keys[g as usize] == key {
                return (g, false);
            }
            pos = (pos + 1) & (self.slots.len() - 1);
        }
    }

    fn push_key(&mut self, key: i64) -> u32 {
        let g = u32::try_from(self.keys.len())
            .ok()
            .filter(|&g| g != Self::EMPTY)
            .expect("group ids below the empty marker");
        self.keys.push(key);
        g
    }

    /// First probe position of `key`: the top bits of a Fibonacci multiply.
    #[inline]
    fn home(&self, key: i64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Rebuild `slots` with room for `groups` groups.
    fn rehash(&mut self, groups: usize) {
        let len = (2 * groups).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(len, Self::EMPTY);
        for g in 0..self.keys.len() {
            let mut pos = self.home(self.keys[g]);
            while self.slots[pos] != Self::EMPTY {
                pos = (pos + 1) & (len - 1);
            }
            self.slots[pos] = g as u32;
        }
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BoundExpr;

    fn agg(func: AggFunc, distinct: bool) -> AggExpr {
        let arg = (func != AggFunc::CountStar).then_some(BoundExpr::Column(0));
        AggExpr { func, arg, distinct }
    }

    /// Fold `vals` into a fresh accumulator for `agg`.
    fn fold(agg: &AggExpr, vals: &[Value]) -> Acc {
        let mut acc = Acc::new(agg);
        for v in vals {
            acc.update(agg.arg.as_ref().map(|_| v.clone())).unwrap();
        }
        acc
    }

    fn floats(vals: &[f64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Float(v)).collect()
    }

    #[test]
    fn empty_accumulators_finalize_to_sql_defaults() {
        for (func, want) in [
            (AggFunc::Sum, Value::Null),
            (AggFunc::Count, Value::Int(0)),
            (AggFunc::CountStar, Value::Int(0)),
            (AggFunc::Min, Value::Null),
            (AggFunc::Max, Value::Null),
            (AggFunc::Avg, Value::Null),
        ] {
            assert_eq!(Acc::new(&agg(func, false)).finalize().unwrap(), want, "{func:?}");
        }
    }

    #[test]
    fn min_max_avg() {
        let vals = floats(&[3.0, 1.0, 2.0]);
        assert_eq!(fold(&agg(AggFunc::Min, false), &vals).finalize().unwrap(), Value::Float(1.0));
        assert_eq!(fold(&agg(AggFunc::Max, false), &vals).finalize().unwrap(), Value::Float(3.0));
        assert_eq!(fold(&agg(AggFunc::Avg, false), &vals).finalize().unwrap(), Value::Float(2.0));
    }

    #[test]
    fn nulls_are_ignored_by_sum_and_count() {
        let vals = [Value::Null, Value::Float(2.0)];
        assert_eq!(fold(&agg(AggFunc::Sum, false), &vals).finalize().unwrap(), Value::Float(2.0));
        assert_eq!(fold(&agg(AggFunc::Count, false), &vals).finalize().unwrap(), Value::Int(1));
        assert_eq!(fold(&agg(AggFunc::CountStar, false), &vals).finalize().unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_integer_stays_integer() {
        let vals = [Value::Int(2), Value::Int(3)];
        assert_eq!(fold(&agg(AggFunc::Sum, false), &vals).finalize().unwrap(), Value::Int(5));
    }

    #[test]
    fn distinct_aggregates() {
        let vals = floats(&[2.0, 2.0, 3.0]);
        assert_eq!(fold(&agg(AggFunc::Count, true), &vals).finalize().unwrap(), Value::Int(2));
        assert_eq!(fold(&agg(AggFunc::Sum, true), &vals).finalize().unwrap(), Value::Float(5.0));
    }

    #[test]
    fn distinct_representative_is_order_independent() {
        // Int 2 and Float 2.0 share a GroupKey; the retained representative
        // (and so SUM(DISTINCT)'s result type) must not depend on which
        // arrives first — sequential input order and parallel worker-merge
        // order both reduce to the same narrowest-representation rule.
        let sum = agg(AggFunc::Sum, true);
        let forward = fold(&sum, &[Value::Float(2.0), Value::Int(2)]).finalize().unwrap();
        let reversed = fold(&sum, &[Value::Int(2), Value::Float(2.0)]).finalize().unwrap();
        assert!(matches!(forward, Value::Int(2)), "narrower representation wins: {forward:?}");
        assert!(matches!(reversed, Value::Int(2)), "{reversed:?}");
    }

    /// What a spilled group goes through: each half of the input is folded,
    /// written as a partial row, and the two partials are consumed into a
    /// fresh accumulator set. The result must equal folding the whole input
    /// at once, and equal merging the halves directly (the parallel path).
    #[test]
    fn partial_rows_round_trip() {
        let aggs = [
            agg(AggFunc::Sum, false),
            agg(AggFunc::Count, false),
            agg(AggFunc::CountStar, false),
            agg(AggFunc::Min, false),
            agg(AggFunc::Max, false),
            agg(AggFunc::Avg, false),
            agg(AggFunc::Count, true),
            agg(AggFunc::Sum, true),
        ];
        let vals = [
            Value::Float(0.5),
            Value::Null,
            Value::Float(-2.0),
            Value::Float(0.5),
            Value::Float(4.0),
            Value::Float(-2.0),
        ];
        let (lo, hi) = vals.split_at(3);
        let fold_all = |vals: &[Value]| -> Vec<Acc> { aggs.iter().map(|a| fold(a, vals)).collect() };
        let finalize = |accs: Vec<Acc>| -> Row {
            accs.into_iter().map(|a| a.finalize().unwrap()).collect()
        };

        let mut from_partials: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        for half in [lo, hi] {
            let mut partial: Row = vec![Value::Int(7)]; // the group key comes first
            for acc in fold_all(half) {
                acc.write_partial(&mut partial).unwrap();
            }
            let mut pos = 1;
            for acc in from_partials.iter_mut() {
                acc.consume_partial(&partial, &mut pos).unwrap();
            }
            assert_eq!(pos, partial.len(), "every value of the record is consumed");
        }

        let mut merged = fold_all(lo);
        for (dst, src) in merged.iter_mut().zip(fold_all(hi)) {
            dst.merge_from(&src).unwrap();
        }

        let whole = finalize(fold_all(&vals));
        assert_eq!(finalize(from_partials), whole);
        assert_eq!(finalize(merged), whole);
    }

    #[test]
    fn distinct_partial_is_count_prefixed_and_sorted() {
        let acc = fold(&agg(AggFunc::Count, true), &floats(&[3.0, 1.0, 3.0, 2.0]));
        let mut out = Row::new();
        acc.write_partial(&mut out).unwrap();
        assert_eq!(out[0], Value::Int(3), "the set's size leads the record");
        assert_eq!(out[1..], floats(&[1.0, 2.0, 3.0])[..], "values follow in total order");

        // A record cut short is a typed error, not a panic.
        let mut fresh = Acc::new(&agg(AggFunc::Count, true));
        let err = fresh.consume_partial(&out[..2], &mut 0).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
    }

    /// Drive `keys` through a table, checking every answer against a
    /// `HashMap` that hands out ids in first-seen order.
    fn table_of(keys: impl IntoIterator<Item = i64>) -> IntGroupTable {
        let mut table = IntGroupTable::default();
        let mut want: HashMap<i64, u32> = HashMap::new();
        for k in keys {
            let fresh = want.len() as u32;
            let (id, is_new) = match want.entry(k) {
                Entry::Occupied(e) => (*e.get(), false),
                Entry::Vacant(e) => (*e.insert(fresh), true),
            };
            assert_eq!(table.find_or_insert(k), (id, is_new), "key {k}");
        }
        assert_eq!(table.keys().len(), want.len());
        assert!(table.keys().iter().enumerate().all(|(g, k)| want[k] == g as u32));
        table
    }

    #[test]
    fn int_group_table_is_sized_by_groups_not_by_key_value() {
        // One group with a 46-bit key: a one-row state of a 47-qubit circuit.
        let t = table_of([0x2AAA_AAAA_AAAA]);
        assert!(t.capacity() <= 16, "capacity {}", t.capacity());
        // Extremes and negatives: none is ever used as an index.
        let t = table_of([i64::MIN, i64::MAX, -1, 0, i64::MAX, i64::MIN + 1]);
        assert!(t.capacity() <= 16, "capacity {}", t.capacity());
        // Sparse: 5 000 groups spread over 62 bits.
        let t = table_of((0..5_000).map(|i| i * 0x0003_7A1B_9F2C_D345));
        assert!(t.capacity() <= 8 * 5_000, "capacity {}", t.capacity());
        // Dense, ascending and then every key again.
        let t = table_of((0..50_000).chain(0..50_000));
        assert!(t.capacity() <= 4 * 50_000, "capacity {}", t.capacity());
        // Dense met from the top down (a bit-reversed gate order).
        let t = table_of((0..64).rev().flat_map(|b| (0..1024).map(move |i| b * 1024 + i)));
        assert!(t.capacity() <= 4 * 65_536, "capacity {}", t.capacity());
    }

    #[test]
    fn int_group_table_keeps_its_groups_across_an_outlier_and_a_clear() {
        // Dense, then one outlier: every earlier group keeps its id, and
        // lookups of old and new keys agree afterwards (`table_of` checks).
        let keys = (0..10_000).chain([1 << 40]).chain(0..10_000).chain(10_000..12_000);
        let mut t = table_of(keys);
        assert!(t.capacity() <= 8 * 12_001, "capacity {}", t.capacity());
        t.clear();
        assert_eq!(t.find_or_insert(3), (0, true));
        assert_eq!(t.keys(), [3]);
    }

    #[test]
    fn partitions_are_stable_and_depth_salted() {
        let keys: Vec<Vec<GroupKey>> = (0..256).map(|k| vec![GroupKey::Int(k)]).collect();
        assert!(keys.iter().all(|k| partition_of(k, 0) == partition_of(k, 0)));
        assert!(keys.iter().all(|k| partition_of(k, 0) < PARTITIONS));
        assert!(
            keys.iter().any(|k| partition_of(k, 0) != partition_of(k, 1)),
            "a deeper level must redistribute"
        );
        // Keys that are not one integer take the general hash.
        let pair = [GroupKey::Int(1), GroupKey::Str("a".into())];
        assert!(partition_of(&pair, 0) < PARTITIONS);
    }

    /// The fast table writes blocks, the generic table rows, both into the
    /// partitions of one operator: one integer key, one partition.
    #[test]
    fn both_spill_writers_agree_on_an_integer_keys_partition() {
        for depth in 0..=MAX_DEPTH {
            for k in (-300..300).chain([i64::MIN, i64::MAX, 1 << 45]) {
                let p = partition_of_int(k, depth);
                assert_eq!(partition_of(&[GroupKey::Int(k)], depth), p);
                // However the generic table spelled the key.
                if k.unsigned_abs() < 1 << 53 {
                    assert_eq!(partition_of(&[Value::Float(k as f64).group_key()], depth), p);
                }
            }
        }
    }

    /// A dense state's keys (0..2^14) split evenly at every level, a level's
    /// partition splits evenly again one level down, and the keys of one
    /// partition spread over the whole merge table — the last is what the
    /// top bits of the table's own multiply could not give.
    #[test]
    fn integer_partitions_are_balanced_and_independent_of_the_table_hash() {
        let n = 1 << 14;
        let even = |counts: &[usize], total: usize, what: &str| {
            let want = total / counts.len();
            assert!(
                counts.iter().all(|&c| c > want / 2 && c < want * 2),
                "{what}: {counts:?}"
            );
        };
        for depth in 0..MAX_DEPTH {
            let mut counts = [0usize; PARTITIONS];
            let mut deeper = [0usize; PARTITIONS];
            let mut homes = [0usize; PARTITIONS];
            let mut table = IntGroupTable::default();
            table.rehash(n / PARTITIONS);
            for k in 0..n as i64 {
                let p = partition_of_int(k, depth);
                counts[p] += 1;
                if p == 3 {
                    deeper[partition_of_int(k, depth + 1)] += 1;
                    homes[table.home(k) * PARTITIONS / table.slots.len()] += 1;
                }
            }
            even(&counts, n, "level");
            even(&deeper, counts[3], "one level down");
            even(&homes, counts[3], "home slots of one partition");
        }
    }
}

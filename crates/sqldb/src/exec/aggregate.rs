//! Aggregate accumulators and the partial-row format they spill in.
//!
//! Every gate application is one `GROUP BY` over the joined state (Fig. 2c),
//! and for dense states the group table is the *entire next quantum state*,
//! so the aggregate in [`super::vector`] spills: under memory pressure it
//! flushes its table into `PARTITIONS` hash partitions chosen by
//! `partition_of` — the fast table as typed blocks, the generic table as
//! *partial aggregate rows* (group key values followed by each
//! accumulator's `Acc::partial` value) — and merges each partition back
//! (`Acc::merge_partial` for the rows), re-partitioning up to `MAX_DEPTH`
//! levels with a depth-salted hash. `Acc` is also what the reference
//! interpreter ([`crate::reference`]) folds with, one row at a time.

use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::plan::logical::{AggExpr, AggFunc};
use crate::storage::spill::row_bytes;
use crate::value::{GroupKey, Value};

pub(crate) const PARTITIONS: usize = 16;
pub(crate) const MAX_DEPTH: u32 = 4;

/// Accumulator state for one aggregate in one group.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    /// `SUM`; `None` until its first term.
    Sum(Option<Value>),
    /// `COUNT(*)`.
    Count(i64),
}

/// Bytes one accumulator charges against the budget.
const ACC_BYTES: usize = 48;

impl Acc {
    pub(crate) fn new(agg: &AggExpr) -> Acc {
        match agg.func {
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::CountStar => Acc::Count(0),
        }
    }

    pub(crate) fn update(&mut self, arg: Option<Value>) -> Result<()> {
        match self {
            Acc::Sum(state) => Self::sum_add(state, &arg.expect("SUM requires an argument"))?,
            Acc::Count(n) => *n += 1,
        }
        Ok(())
    }

    /// `state += v` for SUM, which takes `INTEGER` and `DOUBLE` terms and
    /// keeps their type: a `HUGEINT` or `TEXT` term is a type error. A
    /// `DOUBLE` sum starts from `0.0`, as the `f64` lanes of the aggregate's
    /// fast table do, so a group whose only term is `-0.0` sums to `+0.0` on
    /// every path: fold and partial row.
    fn sum_add(state: &mut Option<Value>, v: &Value) -> Result<()> {
        *state = Some(match (state.take(), v) {
            (_, Value::Big(_) | Value::Str(_)) => {
                return Err(Error::Type(format!("SUM of a {} value", v.data_type())))
            }
            (Some(cur), v) => cur.add(v)?,
            (None, Value::Float(f)) => Value::Float(0.0 + f),
            (None, v) => v.clone(),
        });
        Ok(())
    }

    /// This accumulator's partial state: the one value it contributes to a
    /// spilled partial row. A spilled group has a row, so its sum a term.
    pub(crate) fn partial(&self) -> Value {
        match self {
            Acc::Sum(v) => v.clone().unwrap_or(Value::Int(0)),
            Acc::Count(n) => Value::Int(*n),
        }
    }

    /// Merge a partial state written by [`Acc::partial`].
    pub(crate) fn merge_partial(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::Sum(state) => Self::sum_add(state, v)?,
            Acc::Count(n) => *n += v.as_i64()?,
        }
        Ok(())
    }

    /// The final value: a `SUM` over no rows is `INTEGER` 0.
    pub(crate) fn finalize(self) -> Value {
        match self {
            Acc::Sum(v) => v.unwrap_or(Value::Int(0)),
            Acc::Count(n) => Value::Int(n),
        }
    }

}

pub(crate) type GroupState = (Vec<Value>, Vec<Acc>); // (representative key values, accumulators)

/// Bytes one group of `accs` accumulators charges against the budget while
/// it sits in a table.
pub(crate) fn entry_bytes(reps: &[Value], accs: usize) -> usize {
    row_bytes(reps) + ACC_BYTES * accs + 64
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
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use super::*;
    use crate::expr::BoundExpr;

    fn agg(func: AggFunc) -> AggExpr {
        let arg = (func != AggFunc::CountStar).then_some(BoundExpr::Column(0));
        AggExpr { func, arg }
    }

    /// Fold `vals` into a fresh accumulator for `agg`.
    fn fold(agg: &AggExpr, vals: &[Value]) -> Acc {
        let mut acc = Acc::new(agg);
        for v in vals {
            acc.update(agg.arg.as_ref().map(|_| v.clone())).unwrap();
        }
        acc
    }

    /// The sum of no rows is `INTEGER` 0, the count 0.
    #[test]
    fn empty_accumulators_finalize_to_zero() {
        for func in [AggFunc::Sum, AggFunc::CountStar] {
            let got = Acc::new(&agg(func)).finalize();
            assert!(matches!(got, Value::Int(0)), "{func:?}: {got:?}");
        }
    }

    /// `INTEGER` terms sum to an `INTEGER`, `DOUBLE` terms to a `DOUBLE`
    /// from `0.0` (so a lone `-0.0` sums to `+0.0`, as the fast table's
    /// lanes do).
    #[test]
    fn sum_keeps_the_type_of_its_terms() {
        let vals = [Value::Int(2), Value::Int(3)];
        assert!(matches!(fold(&agg(AggFunc::Sum), &vals).finalize(), Value::Int(5)));
        let got = fold(&agg(AggFunc::Sum), &[Value::Float(-0.0)]).finalize();
        assert!(matches!(got, Value::Float(f) if f.to_bits() == 0.0f64.to_bits()), "{got:?}");
    }

    /// A `HUGEINT` or `TEXT` term is refused, a lone one too: the sum's
    /// type never depends on how many terms it has.
    #[test]
    fn sum_refuses_hugeint_and_text_terms() {
        let big = Value::Big(crate::bigbits::BigBits::from_u64(5, 100));
        for v in [big, Value::Str("a".into())] {
            let mut acc = Acc::new(&agg(AggFunc::Sum));
            let want = Error::Type(format!("SUM of a {} value", v.data_type()));
            assert_eq!(acc.update(Some(v.clone())), Err(want.clone()));
            let mut acc = Acc::new(&agg(AggFunc::Sum));
            acc.update(Some(Value::Int(1))).unwrap();
            assert_eq!(acc.update(Some(v)), Err(want));
        }
    }

    /// What a spilled group goes through: each half of the input is folded,
    /// written as a partial row, and the two partials are merged into a
    /// fresh accumulator set. The result must equal folding the whole input
    /// at once.
    #[test]
    fn partial_rows_round_trip() {
        let aggs = [agg(AggFunc::Sum), agg(AggFunc::CountStar)];
        let vals = [
            Value::Float(0.5),
            Value::Float(-0.0),
            Value::Float(-2.0),
            Value::Float(0.5),
            Value::Float(4.0),
            Value::Float(-2.0),
        ];
        let (lo, hi) = vals.split_at(3);
        let fold_all = |vals: &[Value]| -> Vec<Acc> { aggs.iter().map(|a| fold(a, vals)).collect() };
        let finalize = |accs: Vec<Acc>| -> Vec<Value> { accs.into_iter().map(Acc::finalize).collect() };

        let mut from_partials: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        for half in [lo, hi] {
            for (acc, part) in from_partials.iter_mut().zip(fold_all(half)) {
                acc.merge_partial(&part.partial()).unwrap();
            }
        }
        assert_eq!(finalize(from_partials), finalize(fold_all(&vals)));
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

//! Deterministic fault injection for every disk-touching path.
//!
//! All WAL, checkpoint, and spill file operations funnel through a shared
//! [`FaultInjector`] before they reach the operating system. In debug builds
//! the injector counts every operation per [`FaultSite`] and can be armed
//! with a deterministic schedule — *fail the nth matching operation* (the
//! crash-matrix driver), *fail the nth operation at each of several chosen
//! sites* (multi-fault paths no seed happens to reach) or *fail
//! pseudo-randomly from a seed* (soak tests).
//! A fired fault surfaces as a typed [`Error::Io`] whose message names the
//! site and operation index, and can optionally emulate a power cut by
//! letting **half the bytes land** before the failure ([`FaultKind::Torn`]),
//! which is what produces realistic torn WAL tails and short checkpoint
//! writes for recovery to tolerate.
//!
//! In release builds the whole mechanism compiles to a zero-cost
//! passthrough: the injector is a unit struct, its `write_all` wrapper
//! is a direct `write_all`, and every check is `Ok(())` with no atomic
//! traffic — production I/O pays nothing for the test surface.

use std::fs::File;
use std::io::Write;
use std::sync::Arc;

use crate::error::{Error, Result};

/// Where in the engine an I/O operation happens. Every site is a potential
/// injection point for the crash matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL record append (one `write` per length-prefixed record).
    WalAppend,
    /// An `fsync` of the WAL file (per record under `always`, per commit
    /// under `commit`).
    WalFsync,
    /// Truncating the WAL: the post-checkpoint reset and the torn-tail
    /// repair both land here.
    WalTruncate,
    /// A write into the checkpoint temp file (header, per-table section,
    /// per-chunk row block, trailer).
    CheckpointWrite,
    /// `fsync` of the checkpoint temp file (and the directory afterwards).
    CheckpointFsync,
    /// The atomic rename publishing `checkpoint.tmp` as the live checkpoint.
    CheckpointRename,
    /// A spill-file record write (sort runs, aggregate partitions).
    SpillWrite,
    /// A spill-file record read during a merge or partition replay.
    SpillRead,
}

/// Every injection site, in a stable order (crash-matrix iteration).
pub const ALL_FAULT_SITES: [FaultSite; 8] = [
    FaultSite::WalAppend,
    FaultSite::WalFsync,
    FaultSite::WalTruncate,
    FaultSite::CheckpointWrite,
    FaultSite::CheckpointFsync,
    FaultSite::CheckpointRename,
    FaultSite::SpillWrite,
    FaultSite::SpillRead,
];

impl FaultSite {
    #[cfg(debug_assertions)]
    fn index(self) -> usize {
        ALL_FAULT_SITES.iter().position(|s| *s == self).expect("site listed")
    }

    /// Stable textual name used by the round-trippable schedule syntax.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalAppend => "WalAppend",
            FaultSite::WalFsync => "WalFsync",
            FaultSite::WalTruncate => "WalTruncate",
            FaultSite::CheckpointWrite => "CheckpointWrite",
            FaultSite::CheckpointFsync => "CheckpointFsync",
            FaultSite::CheckpointRename => "CheckpointRename",
            FaultSite::SpillWrite => "SpillWrite",
            FaultSite::SpillRead => "SpillRead",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultSite {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        ALL_FAULT_SITES
            .into_iter()
            .find(|site| site.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| Error::Plan(format!("unknown fault site `{s}`")))
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Clean failure: the operation errors and no bytes land (ENOSPC-style).
    Error,
    /// Power-cut emulation: **half** of the buffer lands on disk, then the
    /// operation errors. Produces torn tails for recovery to tolerate.
    Torn,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Error => "error",
            FaultKind::Torn => "torn",
        })
    }
}

impl std::str::FromStr for FaultKind {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(FaultKind::Error),
            "torn" => Ok(FaultKind::Torn),
            other => Err(Error::Plan(format!("unknown fault kind `{other}`"))),
        }
    }
}

/// A declarative fault schedule, round-trippable through one line of text so
/// a shrunk repro file fully reconstructs it (see [`FaultInjector::arm`]).
///
/// Syntax (case-insensitive site/kind names):
///
/// * `none` — quiescent, nothing fires.
/// * `nth:<site|any>:<n>:<error|torn>` — one-shot: fail the `n`-th upcoming
///   operation matching the site (mirrors [`FaultInjector::arm_nth`]).
/// * `seeded:<seed>:<one_in>:<error|torn>` — fail roughly one in `one_in`
///   operations from a deterministic xorshift stream (mirrors
///   [`FaultInjector::arm_seeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// No faults fire.
    None,
    /// Fail the `nth` (1-based) operation matching `site` (`None` = any).
    Nth {
        /// Restrict to this site, or `None` for any site.
        site: Option<FaultSite>,
        /// 1-based index of the matching operation to fail.
        nth: u64,
        /// How the fault manifests.
        kind: FaultKind,
    },
    /// Fail roughly one in `one_in` operations, seeded deterministically.
    Seeded {
        /// Seed of the xorshift decision stream.
        seed: u64,
        /// Average fail rate denominator (clamped to ≥ 1 when armed).
        one_in: u64,
        /// How the fault manifests.
        kind: FaultKind,
    },
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSchedule::None => write!(f, "none"),
            FaultSchedule::Nth { site, nth, kind } => match site {
                Some(site) => write!(f, "nth:{site}:{nth}:{kind}"),
                None => write!(f, "nth:any:{nth}:{kind}"),
            },
            FaultSchedule::Seeded { seed, one_in, kind } => {
                write!(f, "seeded:{seed}:{one_in}:{kind}")
            }
        }
    }
}

impl std::str::FromStr for FaultSchedule {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("none") {
            return Ok(FaultSchedule::None);
        }
        let parts: Vec<&str> = s.split(':').collect();
        let bad = || Error::Plan(format!("malformed fault schedule `{s}`"));
        let int = |p: &str| p.parse::<u64>().map_err(|_| bad());
        match parts.as_slice() {
            [tag, site, nth, kind] if tag.eq_ignore_ascii_case("nth") => {
                let site = if site.eq_ignore_ascii_case("any") {
                    None
                } else {
                    Some(site.parse::<FaultSite>()?)
                };
                Ok(FaultSchedule::Nth { site, nth: int(nth)?, kind: kind.parse()? })
            }
            [tag, seed, one_in, kind] if tag.eq_ignore_ascii_case("seeded") => Ok(
                FaultSchedule::Seeded {
                    seed: int(seed)?,
                    one_in: int(one_in)?,
                    kind: kind.parse()?,
                },
            ),
            _ => Err(bad()),
        }
    }
}

/// The armed failure schedule (debug builds only).
#[cfg(debug_assertions)]
#[derive(Debug, Clone)]
enum Schedule {
    /// Fail the `remaining`-th next operation matching `site`
    /// (`None` = any site). One-shot: disarms after firing.
    Nth { site: Option<FaultSite>, remaining: u64, kind: FaultKind },
    /// Fail roughly one in `one_in` matching operations, driven by a
    /// deterministic xorshift stream from the seed.
    Seeded { state: u64, one_in: u64, kind: FaultKind },
    /// One countdown per chosen site: each `(site, remaining)` fires once,
    /// at the `remaining`-th next operation of its site, and the schedule
    /// disarms when the last has fired.
    Sites { pending: Vec<(FaultSite, u64)>, kind: FaultKind },
}

#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct State {
    schedule: Option<Schedule>,
    counts: [u64; ALL_FAULT_SITES.len()],
}

/// Shared, injectable I/O gate. See the module docs; obtain one with
/// [`FaultInjector::none`] and arm it with [`FaultInjector::arm_nth`] /
/// [`FaultInjector::arm_seeded`]. Arming is interior-mutable so tests can
/// schedule faults on an injector already owned by a live database.
#[derive(Debug, Default)]
pub struct FaultInjector {
    #[cfg(debug_assertions)]
    state: std::sync::Mutex<State>,
}

impl FaultInjector {
    /// A quiescent injector: counts operations (debug builds) but fails
    /// nothing until armed.
    pub fn none() -> Arc<Self> {
        Arc::new(FaultInjector::default())
    }

    /// Arm: fail the `nth` (1-based) upcoming operation matching `site`
    /// (`None` = any site) with `kind`. One-shot — the schedule disarms
    /// after firing, so subsequent I/O proceeds normally. No-op in release.
    pub fn arm_nth(&self, site: Option<FaultSite>, nth: u64, kind: FaultKind) {
        #[cfg(debug_assertions)]
        {
            let mut st = self.state.lock().unwrap();
            st.schedule =
                Some(Schedule::Nth { site, remaining: nth.max(1), kind });
        }
        #[cfg(not(debug_assertions))]
        let _ = (site, nth, kind);
    }

    /// Arm: fail roughly one in `one_in` operations, chosen by a
    /// deterministic xorshift stream seeded with `seed`. No-op in release.
    pub fn arm_seeded(&self, seed: u64, one_in: u64, kind: FaultKind) {
        #[cfg(debug_assertions)]
        {
            let mut st = self.state.lock().unwrap();
            st.schedule = Some(Schedule::Seeded {
                state: seed | 1, // xorshift must not start at 0
                one_in: one_in.max(1),
                kind,
            });
        }
        #[cfg(not(debug_assertions))]
        let _ = (seed, one_in, kind);
    }

    /// Arm: for each `(site, nth)` pair, fail the `nth` (1-based) upcoming
    /// operation at that site with `kind` — every pair fires once, each on
    /// its own count. This pins a path that needs faults at two chosen
    /// places, e.g. the commit whose fsync fails *and* whose repairing
    /// truncate fails while the healing checkpoint's own truncate (the
    /// second at that site) succeeds. No-op in release.
    pub fn arm_sites(&self, faults: &[(FaultSite, u64)], kind: FaultKind) {
        #[cfg(debug_assertions)]
        {
            let pending = faults.iter().map(|&(site, nth)| (site, nth.max(1))).collect();
            self.state.lock().unwrap().schedule = Some(Schedule::Sites { pending, kind });
        }
        #[cfg(not(debug_assertions))]
        let _ = (faults, kind);
    }

    /// Arm a declarative [`FaultSchedule`] (the round-trippable form used
    /// by repro files). [`FaultSchedule::None`] disarms. No-op in release.
    pub fn arm(&self, schedule: FaultSchedule) {
        match schedule {
            FaultSchedule::None => self.disarm(),
            FaultSchedule::Nth { site, nth, kind } => self.arm_nth(site, nth, kind),
            FaultSchedule::Seeded { seed, one_in, kind } => {
                self.arm_seeded(seed, one_in, kind)
            }
        }
    }

    /// Remove any armed schedule (counters keep running).
    pub fn disarm(&self) {
        #[cfg(debug_assertions)]
        {
            self.state.lock().unwrap().schedule = None;
        }
    }

    /// Operations observed at `site` so far (always 0 in release builds).
    /// The crash matrix runs a workload once against a quiescent injector to
    /// learn each site's op count, then iterates `1..=ops(site)`.
    pub fn ops(&self, site: FaultSite) -> u64 {
        #[cfg(debug_assertions)]
        {
            return self.state.lock().unwrap().counts[site.index()];
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = site;
            0
        }
    }

    /// Total operations observed across all sites (0 in release builds).
    pub fn total_ops(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            return self.state.lock().unwrap().counts.iter().sum();
        }
        #[cfg(not(debug_assertions))]
        0
    }

    /// Reset all per-site counters to zero (schedule untouched).
    pub fn reset_counts(&self) {
        #[cfg(debug_assertions)]
        {
            self.state.lock().unwrap().counts = Default::default();
        }
    }

    /// Count an operation at `site` and decide whether the armed schedule
    /// fires on it. Returns the fault kind to apply, if any.
    #[cfg(debug_assertions)]
    fn fire(&self, site: FaultSite) -> Option<(FaultKind, u64)> {
        let mut st = self.state.lock().unwrap();
        st.counts[site.index()] += 1;
        let n = st.counts[site.index()];
        match &mut st.schedule {
            Some(Schedule::Nth { site: filter, remaining, kind }) => {
                if filter.is_none_or(|s| s == site) {
                    *remaining -= 1;
                    if *remaining == 0 {
                        let kind = *kind;
                        st.schedule = None; // one-shot
                        return Some((kind, n));
                    }
                }
                None
            }
            Some(Schedule::Seeded { state, one_in, kind }) => {
                // xorshift64: deterministic per (seed, op sequence).
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state % *one_in == 0).then_some((*kind, n))
            }
            Some(Schedule::Sites { pending, kind }) => {
                let kind = *kind;
                let at = pending.iter().position(|(s, _)| *s == site)?;
                pending[at].1 -= 1;
                if pending[at].1 > 0 {
                    return None;
                }
                pending.remove(at);
                if pending.is_empty() {
                    st.schedule = None;
                }
                Some((kind, n))
            }
            None => None,
        }
    }

    /// Gate a non-write operation (rename, truncate, read). Injected faults
    /// surface as a typed [`Error::Io`]; in release this is `Ok(())`.
    #[inline]
    pub(crate) fn check(&self, site: FaultSite) -> Result<()> {
        #[cfg(debug_assertions)]
        if let Some((kind, n)) = self.fire(site) {
            return Err(injected(site, kind, n));
        }
        let _ = site;
        Ok(())
    }

    /// Gate a buffer write. On a [`FaultKind::Torn`] fault the first half of
    /// `buf` is written before the error — emulating a crash mid-write — so
    /// recovery code sees realistic short writes. In release this is a
    /// direct `write_all`.
    #[inline]
    pub(crate) fn write_all(
        &self,
        site: FaultSite,
        w: &mut impl Write,
        buf: &[u8],
    ) -> Result<()> {
        #[cfg(debug_assertions)]
        if let Some((kind, n)) = self.fire(site) {
            if kind == FaultKind::Torn {
                let _ = w.write_all(&buf[..buf.len() / 2]);
                let _ = w.flush();
            }
            return Err(injected(site, kind, n));
        }
        let _ = site;
        w.write_all(buf).map_err(Error::from)
    }

    /// Gate an `fsync`. In release this is a direct `sync_data`.
    #[inline]
    pub(crate) fn fsync(&self, site: FaultSite, file: &File) -> Result<()> {
        #[cfg(debug_assertions)]
        if let Some((kind, n)) = self.fire(site) {
            let _ = kind; // an fsync either happens or doesn't — never torn
            return Err(injected(site, kind, n));
        }
        let _ = site;
        file.sync_data().map_err(Error::from)
    }
}

/// The typed error an injected fault surfaces as. Tests match on the
/// `"injected"` prefix to distinguish scheduled faults from real I/O errors.
#[cfg(debug_assertions)]
fn injected(site: FaultSite, kind: FaultKind, op: u64) -> Error {
    Error::Io(format!("injected {kind:?} fault at {site:?} (op {op})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_injector_counts_but_passes() {
        let inj = FaultInjector::none();
        let mut sink = Vec::new();
        inj.write_all(FaultSite::SpillWrite, &mut sink, b"abcd").unwrap();
        inj.check(FaultSite::WalTruncate).unwrap();
        assert_eq!(sink, b"abcd");
        if cfg!(debug_assertions) {
            assert_eq!(inj.ops(FaultSite::SpillWrite), 1);
            assert_eq!(inj.total_ops(), 2);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nth_schedule_fires_once_at_site() {
        let inj = FaultInjector::none();
        inj.arm_nth(Some(FaultSite::SpillWrite), 2, FaultKind::Error);
        let mut sink = Vec::new();
        // Other sites don't advance the countdown.
        inj.check(FaultSite::WalAppend).unwrap();
        inj.write_all(FaultSite::SpillWrite, &mut sink, b"aa").unwrap();
        let e = inj.write_all(FaultSite::SpillWrite, &mut sink, b"bb").unwrap_err();
        assert!(matches!(e, Error::Io(m) if m.contains("injected")));
        assert_eq!(sink, b"aa", "clean fault writes nothing");
        // One-shot: disarmed after firing.
        inj.write_all(FaultSite::SpillWrite, &mut sink, b"cc").unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn torn_fault_writes_half_the_buffer() {
        let inj = FaultInjector::none();
        inj.arm_nth(None, 1, FaultKind::Torn);
        let mut sink = Vec::new();
        let e = inj.write_all(FaultSite::WalAppend, &mut sink, b"12345678").unwrap_err();
        assert!(matches!(e, Error::Io(_)));
        assert_eq!(sink, b"1234", "half the bytes land before the cut");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn site_schedule_fires_each_pair_once_on_its_own_count() {
        let inj = FaultInjector::none();
        inj.arm_sites(
            &[(FaultSite::WalFsync, 1), (FaultSite::WalTruncate, 2)],
            FaultKind::Error,
        );
        inj.check(FaultSite::WalAppend).unwrap(); // an unlisted site never fires
        inj.check(FaultSite::WalTruncate).unwrap(); // first of two
        assert!(inj.check(FaultSite::WalFsync).is_err());
        inj.check(FaultSite::WalFsync).unwrap(); // that pair is spent
        assert!(inj.check(FaultSite::WalTruncate).is_err());
        inj.check(FaultSite::WalTruncate).unwrap(); // disarmed
    }

    #[test]
    fn schedules_round_trip_through_display() {
        let schedules = [
            FaultSchedule::None,
            FaultSchedule::Nth { site: None, nth: 3, kind: FaultKind::Error },
            FaultSchedule::Nth {
                site: Some(FaultSite::CheckpointRename),
                nth: 1,
                kind: FaultKind::Torn,
            },
            FaultSchedule::Seeded { seed: 0xDEAD_BEEF, one_in: 16, kind: FaultKind::Torn },
        ];
        for schedule in schedules {
            let line = schedule.to_string();
            let parsed: FaultSchedule = line.parse().unwrap();
            assert_eq!(parsed, schedule, "round-trip of `{line}`");
        }
        // Every site name parses back to itself.
        for site in ALL_FAULT_SITES {
            assert_eq!(site.to_string().parse::<FaultSite>().unwrap(), site);
        }
        assert!("nth:NoSuchSite:1:error".parse::<FaultSchedule>().is_err());
        assert!("seeded:x:16:error".parse::<FaultSchedule>().is_err());
        assert!("garbage".parse::<FaultSchedule>().is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn parsed_schedule_arms_like_the_direct_call() {
        let direct = FaultInjector::none();
        direct.arm_nth(Some(FaultSite::SpillWrite), 2, FaultKind::Error);
        let parsed = FaultInjector::none();
        parsed.arm("nth:SpillWrite:2:error".parse().unwrap());
        for inj in [&direct, &parsed] {
            let mut sink = Vec::new();
            inj.write_all(FaultSite::SpillWrite, &mut sink, b"aa").unwrap();
            assert!(inj.write_all(FaultSite::SpillWrite, &mut sink, b"bb").is_err());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::none();
            inj.arm_seeded(seed, 4, FaultKind::Error);
            (0..64)
                .map(|_| inj.check(FaultSite::SpillRead).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
        assert!(run(7).iter().any(|&f| f), "some ops fail");
        assert!(run(7).iter().any(|&f| !f), "some ops pass");
    }
}

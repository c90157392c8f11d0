//! Self-contained repro files for failing cases.
//!
//! A repro is a small text file that pins everything needed to replay a
//! failure: the originating seed, the property that failed, the fault
//! schedule (one [`FaultSchedule`] line, round-trippable through its
//! `Display`/`FromStr` pair), the minimized setup statements, and the
//! query. The file is also valid input to `Repro::parse`, so a failure
//! reported by CI replays locally with no other context:
//!
//! ```text
//! # qymera-check repro v1
//! seed: 42
//! property: row-vs-batch
//! fault: none
//! -- setup
//! CREATE TABLE t0 (k0 INTEGER);
//! INSERT INTO t0 VALUES (7);
//! -- query
//! SELECT k0 FROM t0 WHERE k0 > 3;
//! ```

use std::path::{Path, PathBuf};

use qymera_sqldb::{Database, FaultSchedule};

use crate::generator::SqlCase;
use crate::oracle::canon_multiset;

/// A minimized, replayable failure.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Seed of the originating generated case.
    pub seed: u64,
    /// Name of the failed property (e.g. `row-vs-batch`,
    /// `metamorphic:join-commutativity`, `fault-schedule`).
    pub property: String,
    /// Fault schedule active during the failure (`FaultSchedule::None`
    /// for plain differential failures).
    pub fault: FaultSchedule,
    /// Setup statements, in order.
    pub setup: Vec<String>,
    /// The query under test.
    pub query: String,
}

impl Repro {
    /// Build a repro from a (typically already-shrunk) SQL case.
    pub fn from_sql_case(case: &SqlCase, property: &str, fault: FaultSchedule) -> Repro {
        Repro {
            seed: case.seed,
            property: property.to_string(),
            fault,
            setup: case.setup_statements(),
            query: case.query_sql(),
        }
    }

    /// Total statement count (setup + query) — the size the shrinker
    /// minimizes.
    pub fn statement_count(&self) -> usize {
        self.setup.len() + 1
    }

    /// Parse a repro file produced by this type's `Display` impl.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut seed = None;
        let mut property = None;
        let mut fault = FaultSchedule::None;
        let mut setup = Vec::new();
        let mut query = None;
        let mut section = "";
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("seed:") {
                seed = Some(
                    rest.trim()
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed line: {e}"))?,
                );
            } else if let Some(rest) = line.strip_prefix("property:") {
                property = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("fault:") {
                fault = rest
                    .trim()
                    .parse::<FaultSchedule>()
                    .map_err(|e| format!("bad fault line: {e}"))?;
            } else if line == "-- setup" {
                section = "setup";
            } else if line == "-- query" {
                section = "query";
            } else {
                let stmt = line.strip_suffix(';').unwrap_or(line).to_string();
                match section {
                    "setup" => setup.push(stmt),
                    "query" => query = Some(stmt),
                    _ => return Err(format!("statement outside a section: `{line}`")),
                }
            }
        }
        Ok(Repro {
            seed: seed.ok_or("missing `seed:` line")?,
            property: property.ok_or("missing `property:` line")?,
            fault,
            setup,
            query: query.ok_or("missing query section")?,
        })
    }

    /// Write the repro into `dir` (created if needed) as
    /// `repro-<property>-<seed>.sql`; returns the path.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .property
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("repro-{slug}-{}.sql", self.seed));
        std::fs::write(&path, self.to_string())?;
        Ok(path)
    }

    /// Replay the statements through the reference interpreter
    /// ([`Database::query_reference`]) and the sequential and 4-way-parallel
    /// executor, and compare result multisets. Returns a description of the
    /// first disagreement (or error), `None` when all agree — i.e. `None`
    /// means the repro no longer reproduces on this build.
    pub fn replay(&self) -> Option<String> {
        let mut db = Database::new();
        for st in &self.setup {
            if let Err(e) = db.execute(st) {
                return Some(format!("setup errored: `{st}`: {e}"));
            }
        }
        let reference = match db.query_reference(&self.query) {
            Ok(rs) => canon_multiset(rs.rows()),
            Err(e) => return Some(format!("reference errored: `{}`: {e}", self.query)),
        };
        for (name, par) in [("batch", 1), ("parallel4", 4)] {
            db.set_parallelism(par);
            match db.execute(&self.query).map(|rs| canon_multiset(rs.rows())) {
                Ok(rows) if rows == reference => {}
                Ok(rows) => {
                    return Some(format!(
                        "reference vs {name}: result multisets differ ({} vs {} rows)",
                        reference.len(),
                        rows.len()
                    ))
                }
                Err(e) => return Some(format!("{name} errored: `{}`: {e}", self.query)),
            }
        }
        None
    }
}

impl std::fmt::Display for Repro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# qymera-check repro v1")?;
        writeln!(f, "seed: {}", self.seed)?;
        writeln!(f, "property: {}", self.property)?;
        writeln!(f, "fault: {}", self.fault)?;
        writeln!(f, "-- setup")?;
        for st in &self.setup {
            writeln!(f, "{st};")?;
        }
        writeln!(f, "-- query")?;
        writeln!(f, "{};", self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_sqldb::{FaultKind, FaultSite};

    #[test]
    fn repro_round_trips_through_text() {
        let case = SqlCase::generate(9);
        let fault = FaultSchedule::Nth {
            site: Some(FaultSite::WalAppend),
            nth: 3,
            kind: FaultKind::Torn,
        };
        let repro = Repro::from_sql_case(&case, "row-vs-batch", fault);
        let text = repro.to_string();
        let back = Repro::parse(&text).unwrap();
        assert_eq!(back.seed, repro.seed);
        assert_eq!(back.property, repro.property);
        assert_eq!(back.fault.to_string(), repro.fault.to_string());
        assert_eq!(back.setup, repro.setup);
        assert_eq!(back.query, repro.query);
    }

    #[test]
    fn healthy_repro_replays_clean() {
        let case = SqlCase::generate(3);
        let repro = Repro::from_sql_case(&case, "row-vs-batch", FaultSchedule::None);
        assert_eq!(repro.replay(), None, "engines should agree on a healthy build");
    }
}

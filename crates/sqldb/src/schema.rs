//! Relation schemas and name resolution.

use crate::ast::DataType;
use crate::error::{Error, Result};

/// One output column of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Qualifier (table name or alias) this column is addressable through.
    pub relation: Option<String>,
    pub name: String,
    /// Declared type if known (base tables); derived columns are dynamic.
    pub ty: Option<DataType>,
}

impl Field {
    pub fn new(relation: Option<&str>, name: &str) -> Self {
        Field { relation: relation.map(str::to_string), name: name.to_string(), ty: None }
    }

    pub fn typed(relation: Option<&str>, name: &str, ty: DataType) -> Self {
        Field {
            relation: relation.map(str::to_string),
            name: name.to_string(),
            ty: Some(ty),
        }
    }
}

/// What is known of every value of one column, as far as the optimizer needs
/// it to reason about gate queries (see [`crate::plan::keys`]): every value
/// is a non-NULL `INTEGER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColFact {
    /// Bits set in at least one value; a bit outside is 0 in all of them.
    pub ones: u64,
    /// No two rows hold the same value: the column is a key.
    pub unique: bool,
}

/// One entry per column of a relation; `None` where nothing is known.
pub type Facts = Vec<Option<ColFact>>;

/// Ordered column list of a relation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelSchema {
    pub fields: Vec<Field>,
}

impl RelSchema {
    pub fn new(fields: Vec<Field>) -> Self {
        RelSchema { fields }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column names in order (unqualified).
    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Resolve a (possibly qualified) column reference to its index.
    ///
    /// Matching is case-insensitive, mirroring SQL identifier semantics.
    /// Ambiguous unqualified references are an error.
    pub fn resolve(&self, relation: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if !f.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(rel) = relation {
                match &f.relation {
                    Some(r) if r.eq_ignore_ascii_case(rel) => {}
                    _ => continue,
                }
            }
            if found.is_some() {
                return Err(Error::Plan(format!(
                    "ambiguous column reference `{}`",
                    display_ref(relation, name)
                )));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            Error::Plan(format!("unknown column `{}`", display_ref(relation, name)))
        })
    }

    /// Re-qualify every field under a new relation name (for `AS alias`).
    pub fn with_relation(mut self, relation: &str) -> Self {
        for f in &mut self.fields {
            f.relation = Some(relation.to_string());
        }
        self
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &RelSchema) -> RelSchema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        RelSchema { fields }
    }

    /// Indices of all fields belonging to `relation`.
    pub fn relation_indices(&self, relation: &str) -> Vec<usize> {
        self.fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.relation.as_deref().is_some_and(|r| r.eq_ignore_ascii_case(relation))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

fn display_ref(relation: Option<&str>, name: &str) -> String {
    match relation {
        Some(r) => format!("{r}.{name}"),
        None => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RelSchema {
        RelSchema::new(vec![
            Field::new(Some("t0"), "s"),
            Field::new(Some("t0"), "r"),
            Field::new(Some("h"), "in_s"),
            Field::new(Some("h"), "r"),
        ])
    }

    #[test]
    fn resolve_qualified() {
        let s = schema();
        assert_eq!(s.resolve(Some("t0"), "s").unwrap(), 0);
        assert_eq!(s.resolve(Some("h"), "in_s").unwrap(), 2);
        assert_eq!(s.resolve(Some("H"), "IN_S").unwrap(), 2, "case-insensitive");
    }

    #[test]
    fn resolve_unqualified_unique() {
        let s = schema();
        assert_eq!(s.resolve(None, "s").unwrap(), 0);
        assert_eq!(s.resolve(None, "in_s").unwrap(), 2);
    }

    #[test]
    fn ambiguous_and_unknown_are_errors() {
        let s = schema();
        assert!(matches!(s.resolve(None, "r"), Err(Error::Plan(_))));
        assert!(matches!(s.resolve(None, "nope"), Err(Error::Plan(_))));
        assert!(matches!(s.resolve(Some("t0"), "in_s"), Err(Error::Plan(_))));
    }

    #[test]
    fn with_relation_requalifies() {
        let s = schema().with_relation("x");
        assert_eq!(s.resolve(Some("x"), "in_s").unwrap(), 2);
        assert!(s.resolve(Some("t0"), "s").is_err());
    }

    #[test]
    fn join_concatenates() {
        let a = RelSchema::new(vec![Field::new(Some("a"), "x")]);
        let b = RelSchema::new(vec![Field::new(Some("b"), "y")]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert_eq!(j.resolve(Some("b"), "y").unwrap(), 1);
        assert_eq!(j.relation_indices("a"), vec![0]);
    }
}

//! Relation schemas.

use crate::codec::{Cur, Decode, Encode};
use crate::error::{BdbmsError, Result};
use crate::value::{DataType, Value};

/// A column definition: name + declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-preserving; lookups are case-insensitive, like SQL).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Construct a column definition.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
        }
    }
}

crate::codec_struct!(ColumnDef { name, ty });

/// An ordered list of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Encode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.columns.encode(out);
    }
}

impl Decode for Schema {
    fn decode(cur: &mut Cur<'_>) -> Result<Schema> {
        Schema::new(cur.get()?).map_err(|e| BdbmsError::corrupt(e.message))
    }
}

impl Schema {
    /// Build a schema from column definitions, rejecting duplicate names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(BdbmsError::invalid(format!(
                    "duplicate column `{}`",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(cols: &[(&str, DataType)]) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect())
            .expect("static schema must not contain duplicates")
    }

    /// The column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive lookup of a column index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Lookup that errors with the column name when missing.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| BdbmsError::not_found(format!("column `{name}`")))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validate and coerce a row against this schema.
    pub fn check_row(&self, row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.arity() {
            return Err(BdbmsError::invalid(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.arity()
            )));
        }
        row.into_iter()
            .zip(&self.columns)
            .map(|(v, c)| v.coerce_to(c.ty))
            .collect()
    }

    /// Project this schema onto a subset of column indexes.
    pub fn project(&self, idxs: &[usize]) -> Schema {
        Schema {
            columns: idxs.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gene_schema() -> Schema {
        Schema::of(&[
            ("GID", DataType::Text),
            ("GName", DataType::Text),
            ("GSequence", DataType::Text),
        ])
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Text),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = gene_schema();
        assert_eq!(s.index_of("gid"), Some(0));
        assert_eq!(s.index_of("GSEQUENCE"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("nope").is_err());
    }

    #[test]
    fn check_row_coerces_and_validates() {
        let s = Schema::of(&[("a", DataType::Float), ("b", DataType::Text)]);
        let row = s
            .check_row(vec![Value::Int(2), Value::Text("x".into())])
            .unwrap();
        assert_eq!(row[0], Value::Float(2.0));
        assert!(s.check_row(vec![Value::Int(2)]).is_err());
        assert!(s
            .check_row(vec![Value::Text("no".into()), Value::Text("x".into())])
            .is_err());
    }

    #[test]
    fn project_subset() {
        let s = gene_schema();
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), vec!["GSequence", "GID"]);
    }
}

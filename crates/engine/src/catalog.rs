//! The catalog: named tables, and the [`SchemaProvider`] the binder uses.

use std::borrow::Cow;
use std::collections::HashMap;

use datacell_bat::error::{BatError, Result};
use datacell_sql::{Schema, SchemaProvider};

use crate::chunk::Chunk;
use crate::exec::DataSource;
use crate::table::Table;

/// In-memory catalog of stored tables.
///
/// Baskets live in the DataCell layer, not here; the DataCell catalog wraps
/// this one and adds basket schemas, so continuous queries can also join
/// against stored tables (e.g. Linear Road's account-balance table).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table; errors if the name exists.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(BatError::Invalid(format!("table {name} already exists")));
        }
        self.tables
            .insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    /// Drop a table; errors if missing.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| BatError::Invalid(format!("unknown table {name}")))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| BatError::Invalid(format!("unknown table {name}")))
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| BatError::Invalid(format!("unknown table {name}")))
    }

    /// True iff `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

impl SchemaProvider for Catalog {
    fn get_schema(&self, name: &str) -> Option<Schema> {
        self.tables.get(name).map(|t| t.schema().clone())
    }

    fn is_basket(&self, _name: &str) -> bool {
        false
    }
}

impl DataSource for Catalog {
    fn scan(&self, table: &str) -> Result<Cow<'_, Chunk>> {
        Ok(Cow::Borrowed(self.table(table)?.chunk()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    #[test]
    fn create_lookup_drop() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![("a".into(), DataType::Int)]);
        c.create_table("t", schema.clone()).unwrap();
        assert!(c.create_table("t", schema).is_err());
        assert!(c.contains("t"));
        assert_eq!(c.get_schema("t").unwrap().len(), 1);
        assert!(!c.is_basket("t"));
        assert_eq!(c.table_names(), vec!["t".to_string()]);
        c.drop_table("t").unwrap();
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn scan_snapshots() {
        let mut c = Catalog::new();
        c.create_table("t", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        c.table_mut("t")
            .unwrap()
            .append_row(&[datacell_bat::Value::Int(9)])
            .unwrap();
        let chunk = c.scan("t").unwrap();
        assert_eq!(chunk.len(), 1);
        assert!(c.scan("missing").is_err());
    }
}

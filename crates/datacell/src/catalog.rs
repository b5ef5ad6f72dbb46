//! The stream catalog: baskets plus the underlying relational catalog.
//!
//! One [`SchemaProvider`] view over both worlds lets a single front-end
//! compile every query — a continuous query may join a basket against a
//! stored table (Linear Road joins position reports with the accounts
//! table), exactly the reuse the paper argues for.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use datacell_bat::candidates::Candidates;
use datacell_engine::{Catalog, Chunk};
use datacell_sql::{Schema, SchemaProvider};

use crate::basket::Basket;
use crate::error::{DataCellError, Result};

/// Catalog combining stream baskets with stored tables.
#[derive(Debug, Default)]
pub struct StreamCatalog {
    /// The relational catalog (stored tables).
    pub tables: Catalog,
    baskets: HashMap<String, Arc<Basket>>,
}

impl StreamCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a basket from a user schema (implicit `ts` appended).
    pub fn create_basket(&mut self, name: &str, user_schema: Schema) -> Result<Arc<Basket>> {
        if self.baskets.contains_key(name) || self.tables.contains(name) {
            return Err(DataCellError::Catalog(format!(
                "name {name} already exists"
            )));
        }
        let basket = Arc::new(Basket::new(name, user_schema)?);
        self.baskets.insert(name.to_string(), Arc::clone(&basket));
        Ok(basket)
    }

    /// Register an externally created basket under its own name.
    pub fn register_basket(&mut self, basket: Arc<Basket>) -> Result<()> {
        let name = basket.name().to_string();
        if self.baskets.contains_key(&name) || self.tables.contains(&name) {
            return Err(DataCellError::Catalog(format!(
                "name {name} already exists"
            )));
        }
        self.baskets.insert(name, basket);
        Ok(())
    }

    /// Look a basket up.
    pub fn basket(&self, name: &str) -> Result<Arc<Basket>> {
        self.baskets
            .get(name)
            .cloned()
            .ok_or_else(|| DataCellError::Catalog(format!("unknown basket {name}")))
    }

    /// Drop a basket.
    pub fn drop_basket(&mut self, name: &str) -> Result<()> {
        self.baskets
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DataCellError::Catalog(format!("unknown basket {name}")))
    }

    /// True iff `name` is a registered basket.
    pub fn has_basket(&self, name: &str) -> bool {
        self.baskets.contains_key(name)
    }

    /// All basket names, sorted.
    pub fn basket_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.baskets.keys().cloned().collect();
        names.sort();
        names
    }
}

impl SchemaProvider for StreamCatalog {
    fn get_schema(&self, name: &str) -> Option<Schema> {
        if let Some(b) = self.baskets.get(name) {
            return Some(b.schema().clone());
        }
        self.tables.get_schema(name)
    }

    fn is_basket(&self, name: &str) -> bool {
        self.baskets.contains_key(name)
    }
}

/// The data source a factory step executes against: pre-taken basket
/// snapshots, falling back to stored tables. Both are lent to the
/// interpreter, never copied.
pub struct StepSource<'a> {
    /// Snapshots of the step's input baskets as `(basket name, snapshot)`
    /// — one or two entries, so a scan resolves by a linear match.
    pub snapshots: &'a [(&'a str, &'a Chunk)],
    /// Stored tables for joins against relational state.
    pub tables: Option<&'a Catalog>,
}

impl datacell_engine::DataSource for StepSource<'_> {
    fn scan(&self, table: &str) -> datacell_bat::error::Result<Cow<'_, Chunk>> {
        if let Some((_, c)) = self.snapshots.iter().find(|(name, _)| *name == table) {
            return Ok(Cow::Borrowed(c));
        }
        match self.tables {
            Some(t) => t.scan(table),
            None => Err(datacell_bat::BatError::Invalid(format!(
                "factory step has no source named {table}"
            ))),
        }
    }
}

/// What a plan's consuming scans of `basket` referenced (§2.6), merged:
/// a self-join of one basket reports it once per scan. `None` when the
/// plan consumed nothing from it.
pub(crate) fn consumed_positions<'c>(
    consumed: &'c [(String, Candidates)],
    basket: &str,
) -> Option<Cow<'c, Candidates>> {
    let mut reports = consumed
        .iter()
        .filter(|(name, _)| name == basket)
        .map(|(_, cands)| cands);
    let first = reports.next()?;
    Some(reports.fold(Cow::Borrowed(first), |m, c| Cow::Owned(m.union(c))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    #[test]
    fn basket_and_table_names_share_namespace() {
        let mut c = StreamCatalog::new();
        c.tables
            .create_table("t", Schema::new(vec![("a".into(), DataType::Int)]))
            .unwrap();
        assert!(c
            .create_basket("t", Schema::new(vec![("a".into(), DataType::Int)]))
            .is_err());
        c.create_basket("b", Schema::new(vec![("x".into(), DataType::Int)]))
            .unwrap();
        assert!(c.has_basket("b"));
        assert!(!c.has_basket("t"));
        // Schema provider sees both; basket schema includes ts.
        assert_eq!(c.get_schema("t").unwrap().len(), 1);
        assert_eq!(c.get_schema("b").unwrap().len(), 2);
        assert!(c.is_basket("b"));
        assert!(!c.is_basket("t"));
        assert_eq!(c.basket_names(), vec!["b".to_string()]);
        c.drop_basket("b").unwrap();
        assert!(c.basket("b").is_err());
    }

    #[test]
    fn step_source_prefers_snapshots() {
        use datacell_engine::DataSource;
        let snap = Chunk::empty(Schema::new(vec![("x".into(), DataType::Int)]));
        let src = StepSource {
            snapshots: &[("b", &snap)],
            tables: None,
        };
        assert!(src.scan("b").is_ok());
        assert!(src.scan("missing").is_err());
    }
}

//! Relational tables as aligned column collections.

use datacell_bat::candidates::Candidates;
use datacell_bat::column::Column;
use datacell_bat::error::{BatError, Result};
use datacell_bat::types::Value;
use datacell_sql::Schema;

use crate::chunk::Chunk;

/// A stored table: `k` aligned columns, one per attribute (§2 of the paper:
/// "for a relation R of k attributes, there exist k BATs").
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema and columns, kept as one chunk so a scan can lend them.
    data: Chunk,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            data: Chunk::empty(schema),
        }
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.data.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one row (values must match the schema arity; types are
    /// coerced when lossless).
    pub fn append_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema().len() {
            return Err(BatError::Misaligned {
                op: "append_row",
                left: row.len(),
                right: self.schema().len(),
            });
        }
        // A value that does not coerce truncates every column back, so a
        // failed append cannot leave columns with ragged lengths.
        let rows = self.len();
        let columns = &mut self.data.columns;
        for (i, (v, c)) in row.iter().zip(columns.iter_mut()).enumerate() {
            if c.push(v).is_err() {
                columns[..i].iter_mut().for_each(|c| c.truncate(rows));
                return Err(BatError::TypeMismatch {
                    op: "append_row",
                    expected: self.data.schema.columns[i].ty.name(),
                    got: v.data_type().map(|t| t.name()).unwrap_or("nil"),
                });
            }
        }
        Ok(())
    }

    /// Append all rows of a chunk (schema types must match positionally).
    pub fn append_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        if chunk.schema.len() != self.schema().len() {
            return Err(BatError::Misaligned {
                op: "append_chunk",
                left: chunk.schema.len(),
                right: self.schema().len(),
            });
        }
        for (a, b) in self.data.columns.iter_mut().zip(&chunk.columns) {
            a.append_column(b)?;
        }
        Ok(())
    }

    /// Snapshot the current contents as a chunk.
    pub fn snapshot(&self) -> Chunk {
        self.data.clone()
    }

    /// Borrow the current contents (what a scan lends the interpreter).
    pub fn chunk(&self) -> &Chunk {
        &self.data
    }

    /// Borrow the stored columns.
    pub fn columns(&self) -> &[Column] {
        &self.data.columns
    }

    /// Delete the rows at `positions` (ascending), returning how many were
    /// removed.
    pub fn delete_positions(&mut self, positions: &Candidates) -> Result<usize> {
        let keep = positions.complement(self.len());
        let keep_pos = keep.to_positions();
        for c in &mut self.data.columns {
            c.retain_positions(&keep_pos)?;
        }
        Ok(positions.len())
    }

    /// Remove all rows.
    pub fn clear(&mut self) {
        for c in &mut self.data.columns {
            c.clear();
        }
    }

    /// Total heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.columns.iter().map(Column::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Float),
            ]),
        )
    }

    #[test]
    fn append_and_snapshot() {
        let mut t = table();
        t.append_row(&[Value::Int(1), Value::Float(0.5)]).unwrap();
        t.append_row(&[Value::Int(2), Value::Int(3)]).unwrap(); // coerces
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.row(1).unwrap(), vec![Value::Int(2), Value::Float(3.0)]);
    }

    #[test]
    fn append_row_atomic_on_type_error() {
        let mut t = table();
        let err = t.append_row(&[Value::Int(1), Value::Str("x".into())]);
        assert!(err.is_err());
        // No ragged partial append.
        assert_eq!(t.len(), 0);
        assert_eq!(t.columns()[0].len(), t.columns()[1].len());
        // A string pushed before the failing value is truncated away too.
        let mut t = Table::new(
            "s",
            Schema::new(vec![
                ("s".into(), DataType::Str),
                ("a".into(), DataType::Int),
            ]),
        );
        t.append_row(&[Value::Str("kept".into()), Value::Int(1)])
            .unwrap();
        let err = t
            .append_row(&[Value::Str("gone".into()), Value::Str("x".into())])
            .unwrap_err();
        assert!(
            matches!(
                err,
                BatError::TypeMismatch {
                    op: "append_row",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.columns()[0].len(), t.columns()[1].len());
        assert_eq!(
            t.snapshot().columns[0].get(0).unwrap(),
            Value::Str("kept".into())
        );
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(t.append_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn delete_positions_removes() {
        let mut t = table();
        for i in 0..5 {
            t.append_row(&[Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let deleted = t
            .delete_positions(&Candidates::from_positions(vec![1, 3]).unwrap())
            .unwrap();
        assert_eq!(deleted, 2);
        assert_eq!(t.len(), 3);
        let snap = t.snapshot();
        assert_eq!(snap.columns[0].as_ints().unwrap(), &[0, 2, 4]);
    }

    #[test]
    fn clear_empties() {
        let mut t = table();
        t.append_row(&[Value::Int(1), Value::Float(1.0)]).unwrap();
        t.clear();
        assert!(t.is_empty());
    }
}

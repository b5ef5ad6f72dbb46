//! Chunks: the columnar unit of data flow between operators.

use datacell_bat::candidates::Candidates;
use datacell_bat::column::Column;
use datacell_bat::error::{BatError, Result};
use datacell_bat::types::Value;
use datacell_sql::Schema;

/// A set of equal-length columns with a schema — one operator's output.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Column names and types.
    pub schema: Schema,
    /// Data, aligned with `schema`.
    pub columns: Vec<Column>,
}

impl Chunk {
    /// Build a chunk, validating alignment.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(BatError::Misaligned {
                op: "chunk",
                left: schema.len(),
                right: columns.len(),
            });
        }
        if let Some(first) = columns.first() {
            let n = first.len();
            if let Some(bad) = columns.iter().find(|c| c.len() != n) {
                return Err(BatError::Misaligned {
                    op: "chunk",
                    left: n,
                    right: bad.len(),
                });
            }
        }
        for (cd, col) in schema.columns.iter().zip(&columns) {
            if cd.ty != col.data_type() {
                return Err(BatError::TypeMismatch {
                    op: "chunk",
                    expected: cd.ty.name(),
                    got: col.data_type().name(),
                });
            }
        }
        Ok(Chunk { schema, columns })
    }

    /// Empty chunk with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema.columns.iter().map(|c| Column::empty(c.ty)).collect();
        Chunk { schema, columns }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one row as values, into a row allocated once at its width.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        let mut row = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            row.push(c.get(i)?);
        }
        Ok(row)
    }

    /// All rows (tests and small results only).
    pub fn rows(&self) -> Result<Vec<Vec<Value>>> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// Gather the rows selected by `cands` into a new chunk.
    pub fn gather(&self, cands: &Candidates) -> Result<Chunk> {
        let columns = self
            .columns
            .iter()
            .map(|c| gather_column(c, cands))
            .collect::<Result<Vec<_>>>()?;
        Ok(Chunk {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Result<Chunk> {
        let n = n.min(self.len());
        self.gather(&Candidates::Dense(0..n))
    }

    /// Append another chunk's rows (schemas must match).
    pub fn append(&mut self, other: &Chunk) -> Result<()> {
        if self.schema != other.schema {
            return Err(BatError::Invalid(format!(
                "appending chunk with schema [{}] to [{}]",
                other.schema.render(),
                self.schema.render()
            )));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.append_column(b)?;
        }
        Ok(())
    }

    /// Concatenate the columns of two chunks side by side (join output).
    pub fn zip(left: Chunk, right: Chunk) -> Result<Chunk> {
        if left.len() != right.len() {
            return Err(BatError::Misaligned {
                op: "zip",
                left: left.len(),
                right: right.len(),
            });
        }
        let schema = left.schema.concat(&right.schema);
        let mut columns = left.columns;
        columns.extend(right.columns);
        Ok(Chunk { schema, columns })
    }

    /// Render as an aligned text table (for examples and the emitter's
    /// textual interface).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.schema.columns.iter().map(|c| c.name.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.get(i).map(|v| v.to_string()).unwrap_or_default())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .schema
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{:<w$}", c.name, w = w))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{:<w$}", c, w = w))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// The rows of `col` selected by `cands`, as a new column: a slice copy
/// for a dense range, a positional gather otherwise.
pub(crate) fn gather_column(col: &Column, cands: &Candidates) -> Result<Column> {
    match cands {
        Candidates::Dense(r) => col.slice(r.start, r.end.min(col.len())),
        Candidates::Positions(p) => col.take(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_bat::types::DataType;

    fn chunk() -> Chunk {
        Chunk::new(
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Str),
            ]),
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(&["x", "y", "z"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn alignment_validated() {
        let bad = Chunk::new(
            Schema::new(vec![("a".into(), DataType::Int)]),
            vec![Column::from_ints(vec![1]), Column::from_ints(vec![2])],
        );
        assert!(bad.is_err());
        let bad_len = Chunk::new(
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ]),
            vec![Column::from_ints(vec![1]), Column::from_ints(vec![2, 3])],
        );
        assert!(bad_len.is_err());
        let bad_ty = Chunk::new(
            Schema::new(vec![("a".into(), DataType::Str)]),
            vec![Column::from_ints(vec![1])],
        );
        assert!(bad_ty.is_err());
    }

    #[test]
    fn gather_and_head() {
        let c = chunk();
        let g = c
            .gather(&Candidates::from_positions(vec![0, 2]).unwrap())
            .unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(1).unwrap()[0], Value::Int(3));
        let h = c.head(2).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(c.head(10).unwrap().len(), 3);
    }

    #[test]
    fn append_checks_schema() {
        let mut a = chunk();
        let b = chunk();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        let other = Chunk::empty(Schema::new(vec![("z".into(), DataType::Int)]));
        assert!(a.append(&other).is_err());
    }

    #[test]
    fn zip_concatenates() {
        let a = chunk();
        let b = chunk();
        let z = Chunk::zip(a, b).unwrap();
        assert_eq!(z.schema.len(), 4);
        assert_eq!(z.len(), 3);
    }

    #[test]
    fn render_contains_data() {
        let text = chunk().render();
        assert!(text.contains('a'));
        assert!(text.contains('3'));
        assert!(text.contains('z'));
    }
}

//! CSV/TSV output: the inverse of the typed reader.
//!
//! [`write_instance`] renders an instance so that [`crate::read_instance`]
//! under the same [`CsvOptions`] loads the same cells back. Every field the
//! reader would otherwise reinterpret is quoted: text it would trim, read
//! as null or split. Null cells are written as empty unquoted fields, which
//! the default null policy reads as null (in a one-column relation, where
//! that would be a skipped blank line, as the first non-empty null token).
//! V-instance variables are written in their display form (`v3^A2`) and
//! load back as strings.

use crate::{CsvOptions, IoError};
use rt_relation::{Instance, Value};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Does the reader need `text` quoted to load it back verbatim?
fn needs_quotes(text: &str, options: &CsvOptions) -> bool {
    text.is_empty()
        || text.trim() != text
        || options.null_tokens.iter().any(|n| n == text)
        || text
            .bytes()
            .any(|b| b == options.delimiter || matches!(b, b'"' | b'\n' | b'\r'))
}

/// Writes one non-null field, quoting it (`"` doubled) when needed.
fn write_field<W: Write>(out: &mut W, text: &str, options: &CsvOptions) -> std::io::Result<()> {
    if needs_quotes(text, options) {
        write!(out, "\"{}\"", text.replace('"', "\"\""))
    } else {
        out.write_all(text.as_bytes())
    }
}

/// The text of one cell. Integral floats keep a `.0` so that a column of
/// them is not inferred as `Int` on the way back in.
fn cell_text(value: &Value) -> String {
    match value {
        Value::Float(_) => {
            let text = value.to_string();
            if text.contains('.') {
                text
            } else {
                format!("{text}.0")
            }
        }
        other => other.to_string(),
    }
}

/// Writes `instance` as delimited text: a header row (when
/// `options.has_header`), then one record per tuple.
pub fn write_instance<W: Write>(
    instance: &Instance,
    writer: W,
    options: &CsvOptions,
) -> Result<(), IoError> {
    let mut out = BufWriter::new(writer);
    let delimiter = [options.delimiter];
    let null_text = match instance.schema().arity() {
        1 => options
            .null_tokens
            .iter()
            .find(|t| !t.is_empty())
            .map_or("", String::as_str),
        _ => "",
    };
    if options.has_header {
        for (i, (_, name)) in instance.schema().attributes().enumerate() {
            if i > 0 {
                out.write_all(&delimiter)?;
            }
            write_field(&mut out, name, options)?;
        }
        out.write_all(b"\n")?;
    }
    for (_, tuple) in instance.tuples() {
        for (i, (_, value)) in tuple.cells().enumerate() {
            if i > 0 {
                out.write_all(&delimiter)?;
            }
            if value.is_null() {
                out.write_all(null_text.as_bytes())?;
            } else {
                write_field(&mut out, &cell_text(value), options)?;
            }
        }
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

/// Writes `instance` to a file (see [`write_instance`]).
pub fn write_instance_to_path(
    instance: &Instance,
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(), IoError> {
    write_instance(instance, std::fs::File::create(path)?, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_instance, LoadReport};
    use rt_relation::{ColumnType, Schema, Tuple};

    /// The bundled hospital fixture (this crate does not depend on
    /// `rt-scenarios`, which owns it).
    const HOSPITAL_CSV: &str = include_str!("../../scenarios/fixtures/hospital.csv");

    fn round_trip(instance: &Instance, options: &CsvOptions) -> LoadReport {
        let mut buf = Vec::new();
        write_instance(instance, &mut buf, options).unwrap();
        read_instance(buf.as_slice(), options).unwrap()
    }

    fn assert_cells_equal(original: &Instance, reread: &Instance) {
        assert_eq!(reread.len(), original.len());
        for (row, tuple) in original.tuples() {
            for (attr, value) in tuple.cells() {
                assert_eq!(
                    reread.tuple(row).unwrap().get(attr),
                    value,
                    "cell ({row},{attr})"
                );
            }
        }
    }

    #[test]
    fn round_trip_preserves_values() {
        let options = CsvOptions::csv().relation("hospital");
        let original = read_instance(HOSPITAL_CSV.as_bytes(), &options).unwrap();
        assert!(original.null_cells > 0, "the fixture has null cells");
        let reread = round_trip(&original.instance, &options);
        assert_eq!(reread.columns, original.columns);
        assert_cells_equal(&original.instance, &reread.instance);
    }

    #[test]
    fn escape_round_trip() {
        let schema = Schema::new("r", vec!["s", "n"]).unwrap();
        let mut instance = Instance::new(schema);
        let texts = [
            "NA",
            "NULL",
            "null",
            "",
            " a ",
            "\tb",
            "c ",
            "x,y",
            "say \"hi\"",
            "two\nlines",
            "cr\rhere",
            "plain",
        ];
        for (i, text) in texts.iter().enumerate() {
            instance
                .push(Tuple::new(vec![Value::str(*text), Value::Int(i as i64)]))
                .unwrap();
        }
        instance
            .push(Tuple::new(vec![Value::Null, Value::Null]))
            .unwrap();
        let reread = round_trip(&instance, &CsvOptions::csv());
        assert_eq!(reread.columns, vec![ColumnType::Str, ColumnType::Int]);
        assert_eq!(reread.null_cells, 2);
        assert_cells_equal(&instance, &reread.instance);
    }

    #[test]
    fn integral_floats_stay_floats_and_tsv_round_trips() {
        let schema = Schema::new("r", vec!["x", "tag"]).unwrap();
        let mut instance = Instance::new(schema);
        for (x, tag) in [(1.0, "a\tb"), (-2.0, "c")] {
            instance
                .push(Tuple::new(vec![Value::float(x), Value::str(tag)]))
                .unwrap();
        }
        let reread = round_trip(&instance, &CsvOptions::tsv());
        assert_eq!(reread.columns, vec![ColumnType::Float, ColumnType::Str]);
        assert_cells_equal(&instance, &reread.instance);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rt_io_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hospital.csv");
        let options = CsvOptions::csv().relation("hospital");
        let original = read_instance(HOSPITAL_CSV.as_bytes(), &options)
            .unwrap()
            .instance;
        write_instance_to_path(&original, &path, &options).unwrap();
        let reread = crate::load_path(&path, &options).unwrap().instance;
        assert_eq!(reread, original);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_column_nulls_are_not_blank_lines() {
        let schema = Schema::new("r", vec!["s"]).unwrap();
        let mut instance = Instance::new(schema);
        for value in [Value::str("a"), Value::Null, Value::str("")] {
            instance.push(Tuple::new(vec![value])).unwrap();
        }
        let reread = round_trip(&instance, &CsvOptions::csv());
        assert_eq!(reread.null_cells, 1);
        assert_cells_equal(&instance, &reread.instance);
    }
}

//! Rendering experiment results as aligned text tables and JSON reports.

use crate::json::{render, JsonValue};
use std::path::PathBuf;

/// Renders a simple aligned table (header + rows) for terminal output.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Directory where JSON experiment reports are written
/// (`target/experiments/`, created on demand).
pub fn report_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("experiments");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Serializes an experiment's rows (see [`crate::impl_to_json`]) to
/// `target/experiments/<name>.json` as one JSON array. Returns the path on
/// success.
pub fn write_json_report<T>(name: &str, rows: &[T]) -> Option<PathBuf>
where
    for<'a> JsonValue: From<&'a T>,
{
    let doc = JsonValue::Arr(rows.iter().map(JsonValue::from).collect());
    let path = report_dir().join(format!("{name}.json"));
    std::fs::write(&path, render(&doc)).ok()?;
    Some(path)
}

/// Formats a float with 3 decimal places (quality scores).
pub fn fmt_score(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in seconds with 3 decimal places.
pub fn fmt_secs(secs: f64) -> String {
    format!("{secs:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let header = ["x", "long header", "y"];
        let rows = vec![
            vec!["1".to_string(), "a".to_string(), "0.5".to_string()],
            vec!["100".to_string(), "bbb".to_string(), "0.25".to_string()],
        ];
        let table = render_table(&header, &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long header"));
        assert!(lines[2].starts_with("1 "));
        assert!(lines[3].starts_with("100"));
    }

    #[test]
    fn json_report_round_trips() {
        struct Row {
            x: usize,
            y: f64,
        }
        crate::impl_to_json!(Row { x, y });
        let rows = vec![Row { x: 1, y: 0.5 }, Row { x: 2, y: 0.25 }];
        let path = write_json_report("unit_test_report", &rows).expect("report written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("0.5"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_score(0.12345), "0.123");
        assert_eq!(fmt_secs(1.5), "1.500");
    }
}

//! Table printing and JSON result persistence shared by all experiment
//! binaries.

use serde::Serialize;
use std::fs;
use std::path::Path;

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The pretty JSON every `bench_results/` record is written as.
pub fn to_json<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| format!("serialise: {e}"))
}

/// Serialise `value` as pretty JSON into `bench_results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    write_file(&format!("{name}.json"), &to_json(value)?)
}

/// Write `contents` to `bench_results/<file>`, creating the directory.
pub fn write_file(file: &str, contents: &str) -> Result<(), String> {
    let dir = Path::new("bench_results");
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("(wrote {})", path.display());
    Ok(())
}

/// Arithmetic mean, 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The mean of `f` over `items`, 0.0 for none.
pub fn mean_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}

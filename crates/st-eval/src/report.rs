//! Table/figure formatting and JSON result output.

use std::fmt::Write as _;
use std::path::Path;

/// Render an ASCII table with a header row.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    out.push_str(&sep);
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "| {h:<w$} ");
    }
    line.push_str("|\n");
    out.push_str(&line);
    out.push_str(&sep);
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "| {cell:<w$} ");
        }
        line.push_str("|\n");
        out.push_str(&line);
    }
    out.push_str(&sep);
    out
}

/// Render a labeled horizontal bar chart (for "figure" reproduction in a
/// terminal): one row per series value.
pub fn format_bars(title: &str, labels: &[String], values: &[f64], max_width: usize) -> String {
    assert_eq!(labels.len(), values.len());
    let vmax = values.iter().cloned().fold(0.0, f64::max).max(1e-9);
    let lw = labels.iter().map(String::len).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    for (l, &v) in labels.iter().zip(values) {
        let bar = "█".repeat(((v / vmax) * max_width as f64).round() as usize);
        let _ = writeln!(out, "  {l:<lw$} {bar} {v:.3}");
    }
    out
}

/// Write a serde-serializable result to a pretty JSON file, creating parent
/// directories as needed. The write is atomic ([`st_obs::write_atomic`]):
/// a crash mid-write leaves the old file or a stray `.tmp`, never a
/// truncated result.
pub fn write_json<T: serde::Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)?;
    st_obs::write_atomic(path.as_ref(), json.as_bytes())
}

/// Render a text heat map from row-major grid data (Fig. 5 substitute).
pub fn format_heatmap(grid: &[f64], width: usize, height: usize) -> String {
    assert_eq!(grid.len(), width * height);
    const SHADES: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
    let vmax = grid.iter().cloned().fold(0.0, f64::max).max(1e-12);
    let mut out = String::with_capacity((width + 1) * height);
    // print top row last so y grows upward like a map
    for y in (0..height).rev() {
        for x in 0..width {
            let v = grid[y * width + x] / vmax;
            let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[idx]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["Method", "acc"],
            &[
                vec!["DeepST".into(), "0.61".into()],
                vec!["MMI".into(), "0.28".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // all lines same width
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("DeepST"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        format_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn bars_scale_to_max() {
        let b = format_bars("test", &["x".into(), "y".into()], &[1.0, 2.0], 10);
        assert!(b.contains("██████████ 2.000"));
        assert!(b.contains("█████ 1.000"));
    }

    #[test]
    fn heatmap_dimensions() {
        let h = format_heatmap(&[0.0, 1.0, 0.5, 0.25], 2, 2);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().count(), 2);
        assert!(h.contains('@'));
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join(format!("st_eval_json_{}", std::process::id()));
        let path = dir.join("r.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        // Overwrite must go through the tmp+rename path, not truncate.
        write_json(&path, &vec![9, 8]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![9, 8]);
        assert!(
            !dir.join("r.json.tmp").exists(),
            "tmp sibling must be renamed away"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

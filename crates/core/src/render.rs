//! Plain-text rendering of experiment results: aligned tables and CSV.
//!
//! `eucon_bench::reproduce` prints both formats so results can be
//! eyeballed in a terminal or piped into a plotting tool.

/// Renders rows as CSV with a header line.
///
/// # Example
///
/// ```
/// let csv = eucon_core::render::csv(
///     &["etf", "mean"],
///     &[vec!["0.5".into(), "0.828".into()]],
/// );
/// assert_eq!(csv, "etf,mean\n0.5,0.828\n");
/// ```
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Renders rows as an aligned plain-text table.
///
/// # Example
///
/// ```
/// let t = eucon_core::render::table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
/// assert!(t.contains("a | bb"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-"),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with 4 decimal places (the precision used in
/// EXPERIMENTS.md).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Renders a crude ASCII time-series plot (one character column per
/// sample, `height` rows, y spanning `[0, 1]`) — enough to eyeball
/// convergence and oscillation in a terminal.
pub fn ascii_series(series: &[f64], height: usize) -> String {
    if series.is_empty() || height == 0 {
        return String::new();
    }
    let mut rows = vec![vec![b' '; series.len()]; height];
    for (x, &v) in series.iter().enumerate() {
        let clamped = v.clamp(0.0, 1.0);
        let y = ((1.0 - clamped) * (height - 1) as f64).round() as usize;
        rows[y][x] = b'*';
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let label = 1.0 - i as f64 / (height - 1).max(1) as f64;
        out.push_str(&format!("{label:4.2} |"));
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let s = csv(
            &["x", "y"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(s.lines().count(), 3);
        assert!(s.starts_with("x,y\n"));
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["etf", "mean utilization"],
            &[vec!["0.5".into(), "0.83".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn empty_rows_ok() {
        assert_eq!(csv(&["a"], &[]), "a\n");
        assert_eq!(table(&["a"], &[]).lines().count(), 2);
    }

    #[test]
    fn f4_precision() {
        assert_eq!(f4(0.82843), "0.8284");
    }

    #[test]
    fn ascii_series_plots_extremes() {
        let plot = ascii_series(&[0.0, 1.0], 3);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('*'), "top row holds the 1.0 sample");
        assert!(lines[2].contains('*'), "bottom row holds the 0.0 sample");
        assert_eq!(ascii_series(&[], 3), "");
    }
}

//! ASCII charts for terminal experiment reports.
//!
//! The `repro` binary prints every figure as text: bar charts for
//! completion-time figures (Figs. 3–6, 9, 12, 17) and line charts for the
//! CPU-usage and growth-efficiency traces (Figs. 7–8, 10–11, 13–16).

use crate::timeseries::TimeSeries;

/// Render a horizontal bar chart. `rows` are `(label, value)`.
pub fn bar_chart(title: &str, rows: &[(String, f64)], unit: &str, width: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let max = rows.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in rows {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "  {label:<label_w$} |{bar:<width$}| {value:8.1} {unit}\n",
            bar = "#".repeat(bar_len.min(width)),
        ));
    }
    out
}

/// Render several time series as one ASCII line chart.
///
/// Each series is drawn with its own glyph; the y-axis is scaled to the
/// maximum observed value (or `y_max` when given, e.g. 1.0 for CPU shares).
pub fn line_chart(
    title: &str,
    series: &[(&str, &TimeSeries)],
    y_max: Option<f64>,
    width: usize,
    height: usize,
) -> String {
    const GLYPHS: [char; 10] = ['*', '+', 'o', 'x', '#', '@', '%', '&', '=', '~'];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let t_max = series
        .iter()
        .filter_map(|(_, s)| s.last().map(|(t, _)| t))
        .fold(0.0, f64::max);
    let v_max = y_max.unwrap_or_else(|| {
        series
            .iter()
            .filter_map(|(_, s)| s.max_value())
            .fold(0.0, f64::max)
    });
    if t_max <= 0.0 || v_max <= 0.0 {
        out.push_str("  (no data)\n");
        return out;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (t, v) in s.points() {
            let col = ((t / t_max) * (width - 1) as f64).round() as usize;
            let row_from_bottom =
                ((v / v_max).clamp(0.0, 1.0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row_from_bottom;
            grid[row][col.min(width - 1)] = glyph;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let y_label = if i == 0 {
            format!("{v_max:6.2}")
        } else if i == height - 1 {
            format!("{:6.2}", 0.0)
        } else {
            "      ".to_string()
        };
        out.push_str(&format!("{y_label} |{}\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!(
        "       +{}\n        0{:>w$.0}s\n",
        "-".repeat(width),
        t_max,
        w = width - 1
    ));
    for (si, (label, _)) in series.iter().enumerate() {
        out.push_str(&format!("        {} {label}\n", GLYPHS[si % GLYPHS.len()]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_sim::time::SimTime;

    #[test]
    fn bar_chart_scales_to_max() {
        let rows = vec![("short".to_string(), 50.0), ("long".to_string(), 100.0)];
        let chart = bar_chart("Completion", &rows, "s", 20);
        assert!(chart.contains("Completion"));
        let lines: Vec<&str> = chart.lines().collect();
        let short_hashes = lines[1].matches('#').count();
        let long_hashes = lines[2].matches('#').count();
        assert_eq!(long_hashes, 20);
        assert_eq!(short_hashes, 10);
    }

    #[test]
    fn bar_chart_handles_zero_max() {
        let rows = vec![("a".to_string(), 0.0)];
        let chart = bar_chart("Zeros", &rows, "s", 10);
        assert!(chart.contains("0.0"));
    }

    #[test]
    fn line_chart_renders_series_glyphs() {
        let mut s = TimeSeries::new();
        for i in 0..=10 {
            s.push(SimTime::from_secs(i), i as f64 / 10.0);
        }
        let chart = line_chart("CPU", &[("job-1", &s)], Some(1.0), 40, 10);
        assert!(chart.contains('*'));
        assert!(chart.contains("job-1"));
        assert!(chart.contains("1.00"));
    }

    #[test]
    fn line_chart_empty_series_is_graceful() {
        let s = TimeSeries::new();
        let chart = line_chart("Empty", &[("none", &s)], None, 40, 8);
        assert!(chart.contains("(no data)"));
    }
}

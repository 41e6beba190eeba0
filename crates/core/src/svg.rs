//! Minimal SVG line-chart rendering for the figures of `eucon_bench::reproduce`.
//!
//! The paper's figures are time-series and sweep plots; this module turns
//! the recorded series into self-contained SVG files so the reproduction
//! produces actual figures, not only CSVs.  Deliberately tiny: axes,
//! grid, polyline series with a small palette, legend — nothing more.

/// One named series of a chart.
#[derive(Debug, Clone)]
pub struct Series<'a> {
    /// Legend label.
    pub label: &'a str,
    /// Sample values; x is the sample index.
    pub values: &'a [f64],
}

/// Chart configuration.
#[derive(Debug, Clone)]
pub struct ChartConfig<'a> {
    /// Chart title.
    pub title: &'a str,
    /// X-axis label.
    pub x_label: &'a str,
    /// Y-axis label.
    pub y_label: &'a str,
    /// Y-axis range; `None` auto-scales to the data (with 5% margin).
    pub y_range: Option<(f64, f64)>,
    /// Optional horizontal reference line (e.g. the utilization set point).
    pub reference: Option<f64>,
}

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 60.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 50.0;
const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];

/// Renders a line chart of the given series as a standalone SVG document.
///
/// Returns an empty-plot SVG (axes only) when every series is empty.
///
/// # Example
///
/// ```
/// use eucon_core::svg::{line_chart, ChartConfig, Series};
///
/// let u = [0.4, 0.6, 0.8, 0.83, 0.828];
/// let svg = line_chart(
///     &[Series { label: "u1", values: &u }],
///     &ChartConfig {
///         title: "Figure 3(a)",
///         x_label: "sampling period",
///         y_label: "CPU utilization",
///         y_range: Some((0.0, 1.0)),
///         reference: Some(0.828),
///     },
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
pub fn line_chart(series: &[Series<'_>], cfg: &ChartConfig<'_>) -> String {
    let n = series.iter().map(|s| s.values.len()).max().unwrap_or(0);
    let (y_min, y_max) = cfg.y_range.unwrap_or_else(|| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in series {
            for &v in s.values {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if let Some(r) = cfg.reference {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        if !lo.is_finite() || !hi.is_finite() {
            (0.0, 1.0)
        } else {
            let pad = 0.05 * (hi - lo).max(1e-9);
            (lo - pad, hi + pad)
        }
    });

    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let x_of = |i: usize| MARGIN_L + plot_w * i as f64 / (n.max(2) - 1) as f64;
    let y_of = |v: f64| MARGIN_T + plot_h * (1.0 - (v - y_min) / (y_max - y_min).max(1e-12));

    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\" \
         viewBox=\"0 0 {WIDTH} {HEIGHT}\" font-family=\"sans-serif\" font-size=\"12\">\n"
    ));
    out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
    out.push_str(&format!(
        "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
        WIDTH / 2.0,
        escape(cfg.title)
    ));

    // Gridlines and y ticks.
    for k in 0..=4 {
        let v = y_min + (y_max - y_min) * k as f64 / 4.0;
        let y = y_of(v);
        out.push_str(&format!(
            "<line x1=\"{MARGIN_L}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" \
             stroke=\"#dddddd\"/>\n",
            WIDTH - MARGIN_R
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{v:.2}</text>\n",
            MARGIN_L - 6.0,
            y + 4.0
        ));
    }
    // X ticks.
    for k in 0..=4 {
        let i = (n.saturating_sub(1)) * k / 4;
        let x = x_of(i);
        out.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{i}</text>\n",
            HEIGHT - MARGIN_B + 18.0
        ));
    }
    // Axes labels.
    out.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
        WIDTH / 2.0,
        HEIGHT - 12.0,
        escape(cfg.x_label)
    ));
    out.push_str(&format!(
        "<text x=\"16\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {})\">{}</text>\n",
        HEIGHT / 2.0,
        HEIGHT / 2.0,
        escape(cfg.y_label)
    ));

    // Reference line.
    if let Some(r) = cfg.reference {
        let y = y_of(r);
        out.push_str(&format!(
            "<line x1=\"{MARGIN_L}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" \
             stroke=\"#444444\" stroke-dasharray=\"6 4\"/>\n",
            WIDTH - MARGIN_R
        ));
    }

    // Series.
    for (si, s) in series.iter().enumerate() {
        if s.values.is_empty() {
            continue;
        }
        let color = PALETTE[si % PALETTE.len()];
        let points: Vec<String> = s
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("{:.1},{:.1}", x_of(i), y_of(v.clamp(y_min, y_max))))
            .collect();
        out.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>\n",
            points.join(" ")
        ));
        // Legend entry.
        let lx = MARGIN_L + 10.0 + 90.0 * si as f64;
        let ly = MARGIN_T - 10.0;
        out.push_str(&format!(
            "<line x1=\"{lx}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" \
             stroke-width=\"2\"/>\n",
            lx + 18.0
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{}\">{}</text>\n",
            lx + 22.0,
            ly + 4.0,
            escape(s.label)
        ));
    }

    out.push_str("</svg>\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChartConfig<'static> {
        ChartConfig {
            title: "t",
            x_label: "x",
            y_label: "y",
            y_range: Some((0.0, 1.0)),
            reference: Some(0.8),
        }
    }

    #[test]
    fn renders_basic_structure() {
        let v = [0.1, 0.5, 0.9];
        let svg = line_chart(
            &[Series {
                label: "a",
                values: &v,
            }],
            &cfg(),
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("polyline").count(), 1);
        assert!(svg.contains("stroke-dasharray"), "reference line present");
        assert!(svg.contains(">a</text>"), "legend label present");
    }

    #[test]
    fn multiple_series_get_distinct_colors() {
        let v = [0.1, 0.2];
        let svg = line_chart(
            &[
                Series {
                    label: "a",
                    values: &v,
                },
                Series {
                    label: "b",
                    values: &v,
                },
            ],
            &cfg(),
        );
        assert!(svg.contains(PALETTE[0]));
        assert!(svg.contains(PALETTE[1]));
    }

    #[test]
    fn auto_scaling_covers_data_and_reference() {
        let v = [5.0, 10.0];
        let chart = ChartConfig {
            y_range: None,
            reference: Some(12.0),
            ..cfg()
        };
        let svg = line_chart(
            &[Series {
                label: "a",
                values: &v,
            }],
            &chart,
        );
        // Tick labels must reach past the reference value.
        assert!(
            svg.contains("12."),
            "auto range includes the reference: {svg}"
        );
    }

    #[test]
    fn empty_series_render_axes_only() {
        let svg = line_chart(&[], &cfg());
        assert!(svg.starts_with("<svg"));
        assert!(!svg.contains("polyline"));
    }

    #[test]
    fn titles_are_escaped() {
        let chart = ChartConfig {
            title: "a < b & c",
            ..cfg()
        };
        let svg = line_chart(&[], &chart);
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn values_outside_range_are_clamped() {
        let v = [2.0, -1.0];
        let svg = line_chart(
            &[Series {
                label: "a",
                values: &v,
            }],
            &cfg(),
        );
        // Clamped values never place points outside the plot rectangle.
        for cap in svg.split("points=\"").skip(1) {
            let pts = cap.split('"').next().unwrap();
            for pair in pts.split_whitespace() {
                let y: f64 = pair.split(',').nth(1).unwrap().parse().unwrap();
                assert!((39.0..=371.0).contains(&y), "point off plot: {pair}");
            }
        }
    }
}

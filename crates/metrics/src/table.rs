//! Plain-text rendering of tables and figure series.
//!
//! Every `repro` experiment renders its table/figure data through these
//! helpers so `repro all`'s output (and EXPERIMENTS.md) has one uniform shape.

/// Render an aligned text table. `rows` are cell strings; column widths are
/// fitted to content.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    for r in rows {
        assert_eq!(r.len(), ncols, "row arity mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    out.push_str("== ");
    out.push_str(title);
    out.push_str(" ==\n");
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r));
        out.push('\n');
    }
    out
}

/// Render one or more named `(x, y)` series sharing an x axis — the shape
/// of every CDF figure. Series are printed as columns against the union of
/// x values; missing points interpolate as the previous y (step semantics).
pub fn render_series(
    title: &str,
    x_label: &str,
    series: &[(&str, Vec<(f64, f64)>)],
) -> String {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let headers: Vec<&str> = std::iter::once(x_label)
        .chain(series.iter().map(|(n, _)| *n))
        .collect();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|x| {
            let mut row = vec![format!("{x:.3}")];
            for (_, pts) in series {
                // Step interpolation: last y at or before x.
                let y = pts
                    .iter()
                    .take_while(|(px, _)| *px <= *x + 1e-12)
                    .last()
                    .map(|(_, y)| *y);
                row.push(match y {
                    Some(y) => format!("{y:.4}"),
                    None => "-".to_string(),
                });
            }
            row
        })
        .collect();
    render_table(title, &headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let out = render_table(
            "Demo",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(out.contains("== Demo =="));
        assert!(out.contains("long-name  22"));
        // Header padded to widest cell.
        assert!(out.contains("name       value"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_rows_rejected() {
        render_table("x", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn series_aligns_on_union_of_x() {
        let out = render_series(
            "CDF",
            "t",
            &[
                ("ours", vec![(1.0, 0.5), (2.0, 1.0)]),
                ("base", vec![(2.0, 0.5), (3.0, 1.0)]),
            ],
        );
        assert!(out.contains("t"));
        assert!(out.contains("ours"));
        assert!(out.contains("base"));
        // x=1: base has no point yet -> "-".
        let line1 = out.lines().find(|l| l.starts_with("1.000")).unwrap();
        assert!(line1.contains('-'), "{line1}");
        // x=3: ours steps at 1.0 (carried), base reaches 1.0.
        let line3 = out.lines().find(|l| l.starts_with("3.000")).unwrap();
        assert!(line3.matches("1.0000").count() == 2, "{line3}");
    }
}

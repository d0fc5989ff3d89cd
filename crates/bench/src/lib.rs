//! Benchmark harness reproducing the SuperFlow paper's tables and figures.
//!
//! The paper's evaluation consists of three tables and one figure:
//!
//! * **Table II** — majority-based logic synthesis results (#JJs, #Nets,
//!   #Delay) for nine benchmark circuits → [`table2::table2_rows`];
//! * **Table III** — placement quality (HPWL, inserted buffer lines, WNS,
//!   runtime) for the GORDIAN-based baseline, TAAS and SuperFlow →
//!   [`table3::table3_rows`];
//! * **Table IV** — routing results (#JJs after routing, #Nets, routed
//!   wirelength) → [`table4::table4_rows`];
//! * **Fig. 5** — the final GDS layout of `apc128` → the `fig5` binary /
//!   `examples/apc128_layout.rs`.
//!
//! Each table has a binary (`cargo run --release -p bench --bin table2` …)
//! that regenerates the full table over all nine circuits. Paper reference
//! values are bundled in [`mod@reference`] so the binaries can print a
//! side-by-side comparison. The `scale_perf` bench records the
//! million-cell scale trajectory in `BENCH_scale.json` ([`scale`]); per-layer
//! timing of the flow lives in the flow benchmark (`flowbench/`).

#![warn(clippy::unwrap_used)]

pub mod reference;
pub mod scale;
pub mod table2;
pub mod table3;
pub mod table4;

use aqfp_netlist::generators::Benchmark;

/// The circuits used by the quick (CI-friendly) variants of each experiment.
pub const QUICK_CIRCUITS: [Benchmark; 4] =
    [Benchmark::Adder8, Benchmark::Apc32, Benchmark::Decoder, Benchmark::C432];

/// Formats a list of rows (each a vector of cells) as an aligned text table.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        line.push_str(&format!("{:width$}  ", h, width = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:width$}  ", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let table = format_table(
            &["circuit", "value"],
            &[vec!["adder8".into(), "1".into()], vec!["a-very-long-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("circuit"));
        assert!(lines[3].starts_with("a-very-long-name"));
    }

    #[test]
    fn quick_circuits_are_a_subset_of_all() {
        for c in QUICK_CIRCUITS {
            assert!(Benchmark::ALL.contains(&c));
        }
    }
}

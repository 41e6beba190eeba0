//! Regenerates the paper's evaluation — Tables 1–2, the §6.2 stability
//! example, Figures 3–8, the §6.3 tuning table and the ablations — into
//! `results/`, and prints the report it also writes to
//! `results/reproduce.txt`.
//!
//! ```text
//! cargo run --release -p eucon-bench --bin reproduce
//! ```

use std::fs;

fn main() {
    let report = eucon_bench::reproduce();
    let dir = eucon_bench::results_dir();
    for (name, contents) in &report.files {
        fs::write(dir.join(name), contents).expect("write result file");
    }
    print!("{}", report.text);
    eucon_bench::write_result("reproduce.txt", &report.text);
}

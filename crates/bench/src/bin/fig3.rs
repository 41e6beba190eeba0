//! Regenerates Figure 3: CPU utilization of SIMPLE under EUCON at
//! execution-time factors 0.5 (convergence to the 0.828 set points) and 7
//! (instability: collapse around 30·Ts and sustained oscillation).

use eucon_control::MpcConfig;
use eucon_core::svg::{self, ChartConfig, Series};
use eucon_core::{metrics, render, ControllerSpec, LoopBuilder};
use eucon_sim::SimConfig;
use eucon_tasks::workloads;

const PERIODS: usize = 300;

fn run(etf: f64) -> eucon_core::RunResult {
    let mut cl = LoopBuilder::new(workloads::simple())
        .sim_config(SimConfig::constant_etf(etf).seed(1))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .local()
        .expect("loop construction");
    cl.run(PERIODS)
}

fn emit(label: &str, etf: f64, result: &eucon_core::RunResult) {
    println!("\n== Figure 3({label}): SIMPLE, EUCON, etf = {etf} ==\n");
    let u1 = result.trace.utilization_series(0);
    let u2 = result.trace.utilization_series(1);
    let b = result.set_points[0];

    println!("P1 utilization over time (y: 0..1, x: sampling periods / 4):");
    let thinned: Vec<f64> = u1.iter().step_by(4).copied().collect();
    println!("{}", render::ascii_series(&thinned, 12));

    let s1 = metrics::window(&u1, 100, PERIODS);
    let s2 = metrics::window(&u2, 100, PERIODS);
    let rows = vec![
        vec![
            "P1".into(),
            render::f4(s1.mean),
            render::f4(s1.std_dev),
            render::f4(b),
            metrics::acceptable(s1, b).to_string(),
        ],
        vec![
            "P2".into(),
            render::f4(s2.mean),
            render::f4(s2.std_dev),
            render::f4(b),
            metrics::acceptable(s2, b).to_string(),
        ],
    ];
    println!(
        "{}",
        render::table(
            &[
                "proc",
                "mean [100Ts,300Ts]",
                "std dev",
                "set point",
                "acceptable"
            ],
            &rows
        )
    );
    println!("deadline miss ratio: {:.4}", result.deadlines.miss_ratio());

    let series_rows: Vec<Vec<String>> = result
        .trace
        .steps()
        .iter()
        .enumerate()
        .map(|(k, s)| {
            vec![
                k.to_string(),
                render::f4(s.utilization[0]),
                render::f4(s.utilization[1]),
                render::f4(b),
            ]
        })
        .collect();
    eucon_bench::write_result(
        &format!("fig3{label}_etf{etf}.csv"),
        &render::csv(&["k", "u1", "u2", "set_point"], &series_rows),
    );
    let chart = svg::line_chart(
        &[
            Series {
                label: "P1",
                values: &u1,
            },
            Series {
                label: "P2",
                values: &u2,
            },
        ],
        &ChartConfig {
            title: &format!("Figure 3({label}): SIMPLE under EUCON, etf = {etf}"),
            x_label: "time (sampling periods)",
            y_label: "CPU utilization",
            y_range: Some((0.0, 1.0)),
            reference: Some(b),
        },
    );
    eucon_bench::write_result(&format!("fig3{label}_etf{etf}.svg"), &chart);
}

fn main() {
    let a = run(0.5);
    emit("a", 0.5, &a);
    let b = run(7.0);
    emit("b", 7.0, &b);

    println!("\nExpected shapes (paper): (a) both processors converge to 0.828 and hold;");
    println!(
        "(b) initial saturation, collapse around 30Ts, sustained oscillation, no convergence."
    );
}

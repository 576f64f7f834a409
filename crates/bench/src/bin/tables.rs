//! Tables I–X regeneration.
//!
//! * Table I — traditional BRAM counts (pure arithmetic).
//! * Tables II–V — compressed BRAM counts at T ∈ {0,2,4,6} plus management
//!   BRAMs, sized from the synthetic dataset's worst-case occupancy.
//! * Tables VI–X — LUT/register/Fmax estimates (calibrated model).
//!
//! ```text
//! cargo run --release -p sw-bench --bin tables [--quick] [--telemetry-out <path>] [table1|table2|...|table10|resources|all]
//! ```

use sw_bench::table::render;
use sw_bench::{
    analyze_dataset, cli_setup, paper, scene_images, worst_occupancy, write_telemetry_report,
    Sweep, THRESHOLDS, WINDOWS,
};
use sw_core::config::ThresholdPolicy;
use sw_core::planner::{plan, traditional_brams, MgmtAccounting};
use sw_fpga::device::Device;
use sw_fpga::resources::{estimate, ModuleKind};

fn main() {
    let (tele, tele_path) = cli_setup();
    let sweep = Sweep::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--telemetry-out" {
            skip_next = true;
            continue;
        }
        if a != "--quick" {
            which.push(a.clone());
        }
    }
    let want = |name: &str| {
        which.is_empty()
            || which.iter().any(|w| w == name || w == "all")
            || (name.starts_with("table")
                && which.iter().any(|w| w == "resources")
                && matches!(name, "table6" | "table7" | "table8" | "table9" | "table10"))
    };

    if want("table1") {
        let _span = tele.profile_span("tables.table1");
        table1();
    }
    for (idx, width) in [(2usize, 512usize), (3, 1024), (4, 2048), (5, 3840)] {
        if !want(&format!("table{idx}")) {
            continue;
        }
        if width == 3840 && !sweep.include_3840 {
            println!("(skipping table5 / 3840x3840 in --quick mode)\n");
            continue;
        }
        let _span = tele.profile_span(&format!("tables.table{idx}"));
        packed_table(width, sweep.scenes);
    }
    for (idx, kind) in [
        (6, ModuleKind::ForwardIwt),
        (7, ModuleKind::BitPacking),
        (8, ModuleKind::BitUnpacking),
        (9, ModuleKind::InverseIwt),
        (10, ModuleKind::Overall),
    ] {
        if want(&format!("table{idx}")) {
            let _span = tele.profile_span(&format!("tables.table{idx}"));
            resource_table(idx, kind);
        }
    }
    if let Some(path) = tele_path {
        write_telemetry_report(&tele, &path).expect("write telemetry report");
    }
}

fn table1() {
    println!("Table I — traditional architecture 18Kb BRAMs\n");
    let mut rows = Vec::new();
    for &(n, paper_row) in &paper::TABLE1 {
        let mut row = vec![n.to_string()];
        for (w, &want) in [512usize, 1024, 2048, 3840].iter().zip(&paper_row) {
            let got = traditional_brams(n, *w);
            row.push(if got == want {
                got.to_string()
            } else {
                format!("{got} (paper {want})")
            });
        }
        rows.push(row);
    }
    println!(
        "{}",
        render(&["window", "512", "1024", "2048", "3840"], &rows)
    );
}

fn packed_table(width: usize, scenes: usize) {
    let table_no = match width {
        512 => "II",
        1024 => "III",
        2048 => "IV",
        _ => "V",
    };
    // Table V in the paper uses raw-capacity management accounting; II–IV
    // are structural (see EXPERIMENTS.md).
    let accounting = if width == 3840 {
        MgmtAccounting::PureCapacity
    } else {
        MgmtAccounting::Structured
    };
    eprintln!("rendering {scenes} scenes at {width}x{width}...");
    let images = scene_images(width, width, scenes);
    let paper_rows = paper::packed_table(width);

    println!("Table {table_no} — 18Kb BRAMs @ {width}x{width} (measured | paper)\n");
    let mut rows = Vec::new();
    for (wi, &n) in WINDOWS.iter().enumerate() {
        let mut row = vec![n.to_string()];
        let mut mgmt_cell = String::new();
        for (ti, &t) in THRESHOLDS.iter().enumerate() {
            let analyses = analyze_dataset(&images, n, t, ThresholdPolicy::DetailsOnly);
            let worst = worst_occupancy(&analyses);
            let p = plan(n, width, worst, accounting);
            let paper_val = paper_rows.map(|rs| rs[wi].packed[ti]);
            row.push(match paper_val {
                Some(v) => format!("{}|{v}", p.packed_brams),
                None => p.packed_brams.to_string(),
            });
            if ti == 0 {
                let paper_mgmt = paper_rows.map(|rs| rs[wi].mgmt);
                mgmt_cell = match paper_mgmt {
                    Some(v) => format!("{}|{v}", p.mgmt_brams()),
                    None => p.mgmt_brams().to_string(),
                };
            }
        }
        row.push(mgmt_cell);
        rows.push(row);
    }
    println!(
        "{}",
        render(&["window", "T=0", "T=2", "T=4", "T=6", "mgmt"], &rows)
    );
}

fn resource_table(idx: usize, kind: ModuleKind) {
    let roman = ["VI", "VII", "VIII", "IX", "X"][idx - 6];
    println!(
        "Table {roman} — {} resources (calibrated to the paper's synthesis)\n",
        kind.name()
    );
    let dev = Device::XC7Z020;
    let mut rows = Vec::new();
    for &n in &WINDOWS {
        let e = estimate(kind, n);
        let (lut_pct, reg_pct) = e.utilization(&dev);
        let fits = e.fits(&dev);
        rows.push(vec![
            n.to_string(),
            if fits || kind != ModuleKind::Overall {
                format!("{} ({lut_pct:.0}%)", e.luts)
            } else {
                format!("{} (exceeds {})", e.luts, dev.name)
            },
            format!("{} ({reg_pct:.0}%)", e.registers),
            format!("{:.1} MHz", e.fmax_mhz),
        ]);
    }
    println!(
        "{}",
        render(&["window", "LUTs", "registers", "Fmax"], &rows)
    );
}

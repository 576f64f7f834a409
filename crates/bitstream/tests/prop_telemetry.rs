//! Property: the telemetry counters reported by the packer path agree
//! exactly with the analyzer's independently computed packed sizes.
//!
//! `column_cost` is the allocation-free cost model the sweeps and planners
//! trust; `encode_column` + `CodecTelemetry` is the instrumented data path.
//! If they ever disagree, either the analyzer or the telemetry is lying
//! about memory usage — the central quantity of the paper.

use proptest::prelude::*;
use sw_bitstream::{column_cost, encode_column, CodecTelemetry};
use sw_telemetry::TelemetryHandle;

proptest! {
    /// Per-column: every telemetry series matches the cost model.
    #[test]
    fn telemetry_matches_cost_model_per_column(
        coeffs in proptest::collection::vec(-1024i32..=1024, 0..48),
        threshold in 0i32..=32,
    ) {
        let coeffs: Vec<i16> = coeffs.iter().map(|&c| c as i16).collect();
        let cost = column_cost(&coeffs, threshold as i16);
        let enc = encode_column(&coeffs, threshold as i16);

        let t = TelemetryHandle::new();
        let mut tele = CodecTelemetry::attach(&t, "p");
        tele.record_encoded(&enc);
        tele.flush();
        let r = t.report();

        prop_assert_eq!(r.counters["p.packer.payload_bits"], cost.payload_bits);
        prop_assert_eq!(
            r.counters["p.packer.payload_bytes"],
            cost.payload_bits.div_ceil(8)
        );
        prop_assert_eq!(
            r.counters["p.packer.mgmt_bits"],
            cost.bitmap_bits + cost.nbits_bits
        );
        prop_assert_eq!(r.counters["p.packer.significant"], cost.significant as u64);
        prop_assert_eq!(r.counters["p.packer.coefficients"], coeffs.len() as u64);
        // The width histogram's max is the NBits the analyzer predicts
        // (columns with no significant coefficients report width 1 both ways).
        prop_assert_eq!(r.histograms["p.packer.nbits"].max, cost.nbits as u64);
    }

    /// Accumulated over a whole stream of columns, the byte counter equals
    /// the sum of per-column byte-padded sizes from the cost model.
    #[test]
    fn telemetry_accumulates_like_the_analyzer(
        columns in proptest::collection::vec(
            proptest::collection::vec(-512i32..=512, 1..24),
            1..16,
        ),
        threshold in 0i32..=16,
    ) {
        let t = TelemetryHandle::new();
        let mut tele = CodecTelemetry::attach(&t, "s");
        let mut expect_payload_bits = 0u64;
        let mut expect_payload_bytes = 0u64;
        let mut expect_mgmt_bits = 0u64;
        for col in &columns {
            let coeffs: Vec<i16> = col.iter().map(|&c| c as i16).collect();
            let cost = column_cost(&coeffs, threshold as i16);
            expect_payload_bits += cost.payload_bits;
            expect_payload_bytes += cost.payload_bits.div_ceil(8);
            expect_mgmt_bits += cost.bitmap_bits + cost.nbits_bits;
            tele.record_encoded(&encode_column(&coeffs, threshold as i16));
        }
        tele.flush();
        let r = t.report();
        prop_assert_eq!(r.counters["s.packer.columns"], columns.len() as u64);
        prop_assert_eq!(r.counters["s.packer.payload_bits"], expect_payload_bits);
        prop_assert_eq!(r.counters["s.packer.payload_bytes"], expect_payload_bytes);
        prop_assert_eq!(r.counters["s.packer.mgmt_bits"], expect_mgmt_bits);
    }
}

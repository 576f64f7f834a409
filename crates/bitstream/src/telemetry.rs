//! Codec-side telemetry: counters and distributions for the bit packing and
//! unpacking units.
//!
//! One [`CodecTelemetry`] bundle covers one codec instance (e.g. one
//! sub-band's packer). The default bundle is a no-op, so architecture models
//! embed it unconditionally and the hot encode path stays allocation-free
//! when telemetry is disabled. Records are plain local tallies; the owner
//! publishes them with [`CodecTelemetry::flush`] (the sliding-window
//! datapath does so once per row).

use crate::{EncodedColumn, NBITS_FIELD_BITS};
use sw_telemetry::{CounterTally, HistogramTally, TelemetryHandle};

/// Inclusive bucket bounds for the NBits distribution: one bucket per legal
/// coefficient width (the 4-bit management field covers 1..=16).
pub const NBITS_BOUNDS: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// Instruments describing what one column codec packed and unpacked.
#[derive(Debug, Clone, Default)]
pub struct CodecTelemetry {
    columns: CounterTally,
    payload_bits: CounterTally,
    payload_bytes: CounterTally,
    mgmt_bits: CounterTally,
    significant: CounterTally,
    coefficients: CounterTally,
    nbits: HistogramTally,
    decoded_columns: CounterTally,
    decoded_bits: CounterTally,
}

impl CodecTelemetry {
    /// A bundle that records nothing.
    pub fn noop() -> Self {
        Self::default()
    }

    /// Bind to `telemetry` under `<prefix>.packer.*` / `<prefix>.unpacker.*`:
    ///
    /// * `<prefix>.packer.columns` — encoded columns
    /// * `<prefix>.packer.payload_bits` — exact packed payload bits
    /// * `<prefix>.packer.payload_bytes` — byte-padded payload size
    /// * `<prefix>.packer.mgmt_bits` — BitMap + NBits management bits
    /// * `<prefix>.packer.significant` / `.coefficients` — bitmap density
    /// * `<prefix>.packer.nbits` — histogram of column widths (1..=16)
    /// * `<prefix>.unpacker.columns` / `.bits` — decode traffic
    pub fn attach(telemetry: &TelemetryHandle, prefix: &str) -> Self {
        let counter = |name: &str| telemetry.counter(&format!("{prefix}.{name}")).tally();
        Self {
            columns: counter("packer.columns"),
            payload_bits: counter("packer.payload_bits"),
            payload_bytes: counter("packer.payload_bytes"),
            mgmt_bits: counter("packer.mgmt_bits"),
            significant: counter("packer.significant"),
            coefficients: counter("packer.coefficients"),
            nbits: telemetry
                .histogram(&format!("{prefix}.packer.nbits"), &NBITS_BOUNDS)
                .tally(),
            decoded_columns: counter("unpacker.columns"),
            decoded_bits: counter("unpacker.bits"),
        }
    }

    /// Record one encoded column (published by the next [`Self::flush`]).
    #[inline]
    pub fn record_encoded(&mut self, col: &EncodedColumn) {
        self.columns.inc();
        self.payload_bits.add(col.payload_bits);
        self.payload_bytes.add(col.payload.len() as u64);
        self.mgmt_bits
            .add(col.bitmap.len() as u64 + NBITS_FIELD_BITS as u64);
        self.significant.add(col.bitmap.count_ones() as u64);
        self.coefficients.add(col.len() as u64);
        self.nbits.observe(col.nbits as u64);
    }

    /// Record one decoded column (published by the next [`Self::flush`]).
    #[inline]
    pub fn record_decoded(&mut self, col: &EncodedColumn) {
        self.decoded_columns.inc();
        self.decoded_bits.add(col.total_bits());
    }

    /// Publish every pending record into the bound series.
    pub fn flush(&mut self) {
        for c in [
            &mut self.columns,
            &mut self.payload_bits,
            &mut self.payload_bytes,
            &mut self.mgmt_bits,
            &mut self.significant,
            &mut self.coefficients,
            &mut self.decoded_columns,
            &mut self.decoded_bits,
        ] {
            c.flush();
        }
        self.nbits.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_column;

    #[test]
    fn noop_bundle_records_nothing() {
        let mut tele = CodecTelemetry::noop();
        tele.record_encoded(&encode_column(&[1, 2, 3, 4], 0));
        tele.flush();
        // No registry backs the bundle; nothing to assert beyond "no panic".
    }

    #[test]
    fn encoded_columns_feed_every_series() {
        let t = TelemetryHandle::new();
        let mut tele = CodecTelemetry::attach(&t, "band.hl");
        // Figure 2 HL column: width 5, all 4 coefficients significant.
        let col = encode_column(&[13, 12, -9, 7], 0);
        tele.record_encoded(&col);
        tele.record_decoded(&col);
        tele.flush();

        let r = t.report();
        assert_eq!(r.counters["band.hl.packer.columns"], 1);
        assert_eq!(r.counters["band.hl.packer.payload_bits"], 20);
        assert_eq!(r.counters["band.hl.packer.payload_bytes"], 3);
        assert_eq!(
            r.counters["band.hl.packer.mgmt_bits"],
            4 + NBITS_FIELD_BITS as u64
        );
        assert_eq!(r.counters["band.hl.packer.significant"], 4);
        assert_eq!(r.counters["band.hl.packer.coefficients"], 4);
        let h = &r.histograms["band.hl.packer.nbits"];
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 5);
        assert_eq!(r.counters["band.hl.unpacker.columns"], 1);
        assert_eq!(r.counters["band.hl.unpacker.bits"], col.total_bits());
    }

    #[test]
    fn thresholded_column_reports_reduced_density() {
        let t = TelemetryHandle::new();
        let mut tele = CodecTelemetry::attach(&t, "c");
        tele.record_encoded(&encode_column(&[13, 3, -2, 7], 8));
        tele.flush();
        let r = t.report();
        assert_eq!(r.counters["c.packer.significant"], 1);
        assert_eq!(r.counters["c.packer.coefficients"], 4);
    }
}

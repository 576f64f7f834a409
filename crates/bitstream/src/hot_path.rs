//! The hot-path tag a v1/v2 job request carries on the wire.
//!
//! Every hot loop (Haar / LeGall lifting, the NBits width scan,
//! BitMap/payload pack/unpack) has one product implementation: the u64
//! bit-sliced kernels, four 16-bit coefficient lanes per word. The
//! original per-coefficient loops survive only as the differential
//! reference behind `sw-core`'s `oracle` feature, where the
//! `hot_path_equivalence` suites and the `HotPathEquivalence` conformance
//! oracle demand **bit-identical** results from both.
//!
//! [`HotPath`] is what remains of the former runtime switch: a job-request
//! field kept so existing v1/v2 peers stay wire-compatible. Nothing runs
//! differently for either value.

/// Which implementation of the hot loops a client asked for. Carried for
/// wire compatibility; not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HotPath {
    /// The per-sample reference loops (wire tag 0).
    Scalar,
    /// u64 bit-sliced lifting/scan/packing (wire tag 1).
    #[default]
    Sliced,
}

impl HotPath {
    /// Both values, in wire-tag order.
    pub const ALL: [HotPath; 2] = [HotPath::Scalar, HotPath::Sliced];
}

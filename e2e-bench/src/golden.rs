//! Golden outputs: FNV-1a fingerprints of every output at seed 0 and full
//! scale. A run at seed 0 fails on any mismatch and prints the value it
//! found; a change that alters outputs on purpose updates this table in
//! the same diff and says why.

use mocktails_trace::fnv1a;

use crate::{Config, Outcome, Scale};

/// Per Table II trace: encoded profile, encoded synthetic trace.
pub(crate) const MODEL: [(&str, u64, u64); 18] = [
    ("Crypto1", 0xeedc302fb5aa3a69, 0x99a219c73226ba83),
    ("Crypto2", 0xf717224ea196d64d, 0x964acffbc516604d),
    ("CPU-D", 0xf0e0d22f1e0ace74, 0x35ac4ca38c045486),
    ("CPU-G", 0x08606ddad46fe685, 0x969514ccc8b2746d),
    ("CPU-V", 0xf5dc1c7240dd16f8, 0xa3f03125a90aef34),
    ("FBC-Linear1", 0xf26367912df460d9, 0xe5a4eff6e88a10a2),
    ("FBC-Linear2", 0x60e9cba7715623bf, 0x9041d887a7d0f492),
    ("FBC-Tiled1", 0x23f9c2981ae5b626, 0x6c62d5d28a49999e),
    ("FBC-Tiled2", 0x18590cf2cbf927f6, 0xf027f452a105955b),
    ("Multi-layer", 0xd73fd86281f6c5f8, 0xb8f142509f8a6a66),
    ("T-Rex1", 0xae62b6340b691cc1, 0x0178966cae806b85),
    ("T-Rex2", 0x42ea6595f8d1fcbf, 0x40acc3ec84c708c7),
    ("Manhattan", 0xa9d7db1b67a2edfc, 0xefb1ebb0c79302a0),
    ("OpenCL1", 0x36bfab7a6d8a0be1, 0x65247a504b8cdc82),
    ("OpenCL2", 0xc9cee0d5fb45972b, 0x0e4772cc1e9df75f),
    ("HEVC1", 0x6d656c4eabdce378, 0x39b27853a2efd5dd),
    ("HEVC2", 0x94419f9df452c14f, 0x863408c8d1b97d9d),
    ("HEVC3", 0xc614951f8231d36b, 0x45595d1c83248a77),
];

/// Per Table II trace: DRAM statistics of the Option A replay and of the
/// Option B coupled run.
pub(crate) const DRAM: [(&str, u64, u64); 18] = [
    ("Crypto1", 0x028f19c72a464e66, 0x4a7cded1d726e738),
    ("Crypto2", 0x43b421b974f9512a, 0x64e41be55cdb0966),
    ("CPU-D", 0xf6bc6ed43c06ef46, 0xc37aa919e0b1399a),
    ("CPU-G", 0xd87c3ebf47a7b656, 0xc62d2c4afb3b9470),
    ("CPU-V", 0x78794227d1d0874a, 0x61dde2f518da74fa),
    ("FBC-Linear1", 0xfef24b46ec6b8ef8, 0x8c0984866031d16b),
    ("FBC-Linear2", 0x377b446da0398116, 0x1cb2f27aa3ca0b5d),
    ("FBC-Tiled1", 0x9e446c4c8e5825f3, 0xfab12cd3972b79de),
    ("FBC-Tiled2", 0x32aa37cd0cbd3568, 0x5cec31b7e7ab29ff),
    ("Multi-layer", 0xaa1d20a314d9cb8a, 0x9baef39d08faddda),
    ("T-Rex1", 0x6cfd42117978809f, 0x2b79f5b7427145e0),
    ("T-Rex2", 0x4223d80fbcf5a3c2, 0xde00382b23cfe7f0),
    ("Manhattan", 0x3912ad7854e904f8, 0x05d193cc747a4ab2),
    ("OpenCL1", 0xc0ce4e7d62343ee0, 0x6e2366b0a82d273c),
    ("OpenCL2", 0x189622b413896c4a, 0x33c3f80dfc3c805b),
    ("HEVC1", 0x4a898256e8a69ae2, 0x66037572c5573602),
    ("HEVC2", 0x43e795cba1523e17, 0x587e43d994d11193),
    ("HEVC3", 0xa9f680758233b100, 0xd6cb4ae3a58859de),
];

/// Per SPEC-like benchmark: L1/L2 statistics of the Dynamic synthetic
/// trace.
pub(crate) const CACHE: [(&str, u64); 4] = [
    ("gcc", 0x3649caf7e462d726),
    ("mcf", 0x68ded790eaaca793),
    ("hmmer", 0x721ac8f802dfb52f),
    ("libquantum", 0xe2f585928df8d27b),
];

/// Per served profile: the streamed record bytes.
pub(crate) const STREAM: [(&str, u64); 6] = [
    ("T-Rex1", 0x36ab899ae6c9d511),
    ("HEVC1", 0xa82e02f600ee2dbe),
    ("FBC-Tiled1", 0xe6703d0c347c2582),
    ("Crypto1", 0xe0dd52d91a1cdef8),
    ("OpenCL1", 0xf6b2ab7c079dff56),
    ("Multi-layer", 0x6a3cf901a100fa8a),
];

/// Whether this run's outputs are pinned.
pub(crate) fn applies(cfg: &Config) -> bool {
    cfg.seed == 0 && cfg.scale == Scale::Full
}

/// Fingerprint of a statistics value through its `Debug` rendering.
pub(crate) fn of_debug(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Compares one pinned fingerprint.
pub(crate) fn check(out: &mut Outcome, what: &str, key: &str, want: u64, got: u64) {
    out.check(want == got, || {
        format!("golden {what} of {key}: pinned {want:#018x}, got {got:#018x}")
    });
}

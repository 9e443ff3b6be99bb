//! Outputs pinned for a tuning seed and a held-out seed per workload.
//!
//! A run at one of these seeds compares its output summary (MTDs,
//! verdict counts and a digest of every result bit) with the pinned
//! line; a mismatch is a failed check. The tuning seed is the one the
//! benchmark was tuned on; the held-out seed was not used while tuning,
//! so a later speed claim can be re-checked on it.

/// `(workload, seed, summary)`: seed 1 is the tuning seed, seed 1009
/// the held-out seed.
const PINS: &[(&str, u64, &str)] = &[
    (
        "cpa-campaign",
        1,
        "mtd=[Some(2000), Some(2000), Some(2000), Some(3000)] results=6839d1528bd0147d",
    ),
    (
        "cpa-campaign",
        1009,
        "mtd=[Some(1000), Some(2000), Some(1000), Some(3000)] results=e9155ac6a4348e5c",
    ),
    ("defended-stream", 1, "disclosed=0 results=66ece02e89b3ae87"),
    (
        "defended-stream",
        1009,
        "disclosed=1 results=eb04d8700a1cf274",
    ),
    (
        "cloud-fleet",
        1,
        "delivered=221 denied=8 rounds=29 report=6da99813498a5edc",
    ),
    (
        "cloud-fleet",
        1009,
        "delivered=221 denied=8 rounds=29 report=8745f0d776d3b4bf",
    ),
];

/// The pinned output summary of `workload` at `seed`, if any.
pub fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, summary)| *summary)
}

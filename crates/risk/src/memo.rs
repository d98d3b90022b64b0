//! Opt-in memoization of the combined STI's two tube volumes.
//!
//! `StiEvaluator::evaluate_combined` — the SMC reward, evaluated at every
//! RL step — needs `|T|` and `|T^∅|`. Each is a pure function of the ego
//! state, the map, the reach configuration and the *interpolated obstacle
//! footprints* of the tube's active obstacle set (`|T^∅|` depends on no
//! obstacles at all). Along an SMC mitigation episode the ego revisits
//! identical states whenever episodes replay a shared action prefix, or
//! when it is stopped or cruising steadily — and against a static hazard
//! the obstacle footprints recur too, so the same volumes are recomputed
//! over and over for the same answer.
//!
//! [`TubeMemo`] caches tube volumes keyed by the **quantized** ego state
//! (millimetre/centi-milliradian resolution), a fingerprint of every
//! config field the tube depends on, and a fingerprint of the active
//! obstacles' interpolated slice footprints
//! ([`iprism_reach::SliceCache::fingerprint`]; the empty set keys `|T^∅|`).
//! That fingerprint folds in the active count first, so the keys of `|T|`
//! and `|T^∅|` differ whenever the scene has an actor. The memo is
//! strictly **opt-in** (`StiEvaluator::with_tube_memo`) and serves only
//! `evaluate_combined`: within one ego quantization cell the cached volume
//! substitutes for an exact recomputation, a deliberate, bounded
//! approximation that the default evaluator never makes.
//!
//! The map is *not* part of the key — a memo handle must only be used with
//! one map, which is how `iprism_core`'s mitigation environment (one map
//! per episode set) wires it up.

use std::collections::BTreeMap;
use std::sync::Mutex;

use iprism_dynamics::VehicleState;
use iprism_reach::ReachConfig;

/// Quantized ego state `(x, y, θ, v)` plus config and obstacle-footprint
/// fingerprints.
pub(crate) type MemoKey = (i64, i64, i64, i64, u64, u64);

/// Position quantum (m) for memo keys: 1 mm.
const POS_QUANTUM: f64 = 1e-3;
/// Heading quantum (rad) for memo keys.
const ANGLE_QUANTUM: f64 = 1e-4;
/// Speed quantum (m/s) for memo keys: 1 mm/s.
const SPEED_QUANTUM: f64 = 1e-3;

/// A shared, thread-safe cache of the factual and empty-world tube volumes
/// of `StiEvaluator::evaluate_combined` (the obstacle-footprint fingerprint
/// in the key tells them apart).
///
/// Create one with [`TubeMemo::new`], wrap it in an [`std::sync::Arc`],
/// and hand it to every evaluator that should share it via
/// `StiEvaluator::with_tube_memo`. Lookups and inserts are guarded by a
/// mutex; on a poisoned lock the memo degrades to missing every lookup and
/// dropping every insert rather than panicking.
#[derive(Debug, Default)]
pub struct TubeMemo {
    entries: Mutex<BTreeMap<MemoKey, f64>>,
}

impl TubeMemo {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        TubeMemo::default()
    }

    /// Number of cached volumes.
    pub fn len(&self) -> usize {
        self.entries.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Returns `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every cached entry (e.g. when switching maps).
    pub fn clear(&self) {
        if let Ok(mut map) = self.entries.lock() {
            map.clear();
        }
    }

    /// Probes the cache without computing anything on a miss.
    pub(crate) fn get(&self, key: &MemoKey) -> Option<f64> {
        self.entries.lock().ok()?.get(key).copied()
    }

    /// Caches `volume` under `key` (last write wins; all writers of one key
    /// produce the same deterministic value).
    pub(crate) fn insert(&self, key: MemoKey, volume: f64) {
        if let Ok(mut map) = self.entries.lock() {
            map.insert(key, volume);
        }
    }
}

/// Builds the memo key for an ego state under a configuration, with
/// `obstacles_fp` fingerprinting the tube's active obstacle footprints
/// ([`iprism_reach::SliceCache::fingerprint`] of the active set).
pub(crate) fn memo_key(ego: &VehicleState, config: &ReachConfig, obstacles_fp: u64) -> MemoKey {
    (
        (ego.x / POS_QUANTUM).round() as i64,
        (ego.y / POS_QUANTUM).round() as i64,
        (ego.theta / ANGLE_QUANTUM).round() as i64,
        (ego.v / SPEED_QUANTUM).round() as i64,
        config_fingerprint(config),
        obstacles_fp,
    )
}

#[inline]
fn fold(mut h: u64, bits: u64) -> u64 {
    // FNV-1a over the little-endian bytes.
    for b in bits.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[inline]
fn fold_f(h: u64, x: f64) -> u64 {
    fold(h, x.to_bits())
}

/// FNV-1a fingerprint of every [`ReachConfig`] field a tube depends on
/// beyond its obstacle footprints. `start_time` is deliberately excluded:
/// it enters a tube computation *only* through the interpolated obstacle
/// footprints, which the obstacle fingerprint in the memo key captures
/// exactly — this is what lets one memo serve a whole episode sweep.
fn config_fingerprint(c: &ReachConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    h = fold_f(h, c.dt.get());
    h = fold_f(h, c.horizon.get());
    h = fold_f(h, c.dedup_epsilon);
    let (tag, na, ns) = match c.mode {
        iprism_reach::SamplingMode::Boundary => (0u64, 0u64, 0u64),
        iprism_reach::SamplingMode::Extreme => (1, 0, 0),
        iprism_reach::SamplingMode::Uniform { na, ns } => (2, na as u64, ns as u64),
    };
    h = fold(h, tag);
    h = fold(h, na);
    h = fold(h, ns);
    h = fold_f(h, c.grid_resolution.get());
    h = fold_f(h, c.safety_margin.get());
    h = fold(h, c.max_frontier as u64);
    h = fold_f(h, c.drivable_margin.get());
    h = fold_f(h, c.ego_dims.0.get());
    h = fold_f(h, c.ego_dims.1.get());
    h = fold_f(h, c.model.wheelbase.get());
    let l = &c.model.limits;
    h = fold_f(h, l.accel_min);
    h = fold_f(h, l.accel_max);
    h = fold_f(h, l.steer_min);
    h = fold_f(h, l.steer_max);
    h = fold_f(h, l.v_min);
    h = fold_f(h, l.v_max);
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp)] // exact comparisons are intentional in tests
    use super::*;
    use iprism_units::{Meters, Seconds};

    fn ego() -> VehicleState {
        VehicleState::new(100.0, 5.25, 0.0, 10.0)
    }

    #[test]
    fn inserted_volumes_are_cached_until_cleared() {
        let memo = TubeMemo::new();
        assert!(memo.is_empty());
        let key = memo_key(&ego(), &ReachConfig::default(), 7);
        assert_eq!(memo.get(&key), None);
        memo.insert(key, 42.5);
        assert_eq!(memo.get(&key), Some(42.5));
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.get(&key), None);
    }

    #[test]
    fn key_distinguishes_states_beyond_quantum() {
        let cfg = ReachConfig::default();
        let a = memo_key(&VehicleState::new(100.0, 5.25, 0.0, 10.0), &cfg, 0);
        let b = memo_key(&VehicleState::new(100.1, 5.25, 0.0, 10.0), &cfg, 0);
        let c = memo_key(&VehicleState::new(100.0, 5.25, 0.0, 10.0), &cfg, 0);
        let d = memo_key(&VehicleState::new(100.0, 5.25, 0.0, 10.0), &cfg, 1);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, d, "obstacle fingerprint must distinguish keys");
    }

    #[test]
    fn fingerprint_ignores_start_time_only() {
        let base = ReachConfig::default();
        let shifted = base.at_time(Seconds::new(37.5));
        assert_eq!(
            memo_key(&ego(), &base, 0).4,
            memo_key(&ego(), &shifted, 0).4
        );

        let coarser = ReachConfig {
            grid_resolution: Meters::new(1.0),
            ..ReachConfig::default()
        };
        assert_ne!(
            memo_key(&ego(), &base, 0).4,
            memo_key(&ego(), &coarser, 0).4
        );
        let fewer = ReachConfig {
            max_frontier: 100,
            ..ReachConfig::default()
        };
        assert_ne!(memo_key(&ego(), &base, 0).4, memo_key(&ego(), &fewer, 0).4);
        let fast = ReachConfig::fast();
        assert_ne!(memo_key(&ego(), &base, 0).4, memo_key(&ego(), &fast, 0).4);
    }
}

//! Memoized state-cost evaluation.
//!
//! "Each time it computes the cost of a node that is slightly different
//! from a previous one. Since Formula (6) permits incremental cost
//! computation, cost(.) has been implemented in this way. Costs that may be
//! re-used are cached. This technique is used in all algorithms proposed."
//! (paper Section 5.2.1, discussion of `cost(Q, R, C, P)`).
//!
//! States are tiny index sets, so a straight sum is already `O(|R|)`; the
//! cache's value is avoiding the repeated re-derivation when the boundary
//! searches revisit neighborhoods. [`CostCache`] is a per-run memo: it is
//! created by one search, unbounded, and dropped with it. Its footprint is
//! charged to the Figure 13 memory accounting like every other structure
//! the algorithms keep.

use crate::spaces::SpaceView;
use crate::state::{State, StateKey};
use std::collections::HashMap;

/// Approximate per-entry heap footprint (key + value) in bytes.
const ENTRY_BYTES: usize = std::mem::size_of::<StateKey>() + std::mem::size_of::<u64>();

/// A per-run memo of `state → cost` keyed by the state's bit key.
#[derive(Debug, Default)]
pub struct CostCache {
    map: HashMap<StateKey, u64>,
    hits: u64,
    misses: u64,
}

impl CostCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// The cost of `s` in `view`, computed at most once per state.
    pub fn cost(&mut self, view: &SpaceView<'_>, s: &State) -> u64 {
        let key = s.bitkey();
        match self.map.get(&key) {
            Some(&c) => {
                self.hits += 1;
                c
            }
            None => {
                self.misses += 1;
                let c = view.state_cost(s);
                self.map.insert(key, c);
                c
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (actual evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.map.len() * ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqp_prefs::{ConjModel, Doi};
    use cqp_prefspace::{PrefParams, PreferenceSpace};

    fn space() -> PreferenceSpace {
        PreferenceSpace::synthetic(
            vec![
                PrefParams {
                    doi: Doi::new(0.9),
                    cost_blocks: 10,
                    size_factor: 0.5,
                },
                PrefParams {
                    doi: Doi::new(0.5),
                    cost_blocks: 7,
                    size_factor: 0.5,
                },
            ],
            10.0,
            0,
        )
    }

    #[test]
    fn caches_repeated_evaluations() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::new();
        let st = State::from_indices(vec![0, 1]);
        let a = cache.cost(&view, &st);
        let b = cache.cost(&view, &st);
        assert_eq!(a, b);
        assert_eq!(a, view.state_cost(&st));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn distinct_states_evaluate_separately() {
        let s = space();
        let view = SpaceView::cost(&s, ConjModel::NoisyOr);
        let mut cache = CostCache::new();
        cache.cost(&view, &State::singleton(0));
        cache.cost(&view, &State::singleton(1));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }
}

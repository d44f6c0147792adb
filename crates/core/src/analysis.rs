//! Memoized per-application scheduling invariants.
//!
//! Planning a schedule repeatedly touches the same expensive
//! derivations: the lifetime analysis, the empty-retention footprint
//! peaks behind [`all_fit`](crate::all_fit) /
//! [`max_common_rf`](crate::max_common_rf), and the sharing-candidate
//! discovery. A design-space sweep evaluates the same (application,
//! cluster schedule) pair under many architectures and schedulers, so
//! [`ScheduleAnalysis`] computes each invariant once and shares it —
//! it is `Sync` and intended to sit behind an `Arc` across worker
//! threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mcds_model::{Application, ClusterId, ClusterSchedule, Words};
use mcds_sim::{OpSchedule, SimReport};

use crate::{
    cluster_peak, find_candidates_with, Candidate, FootprintModel, Lifetimes, RetentionSet,
    StagePlan,
};

/// One memoized reuse-factor evaluation: the stage plan, the emitted
/// operation schedule, and the simulated makespan for one rung of the
/// RF ladder every [`DataScheduler`](crate::DataScheduler) walks.
///
/// The triple is a pure function of the workload structure plus the
/// inputs folded into the memo key (see
/// [`ScheduleAnalysis::ladder_eval`]); notably it never reads the Frame
/// Buffer capacity, which is what lets arch-only variants share rungs.
#[derive(Debug)]
pub struct LadderEval {
    /// Stage plans for one full execution at this reuse factor.
    pub stages: Vec<StagePlan>,
    /// The operation schedule emitted from those stages.
    pub ops: OpSchedule,
    /// The full simulation report of `ops` — kept whole (not just the
    /// makespan) so the final evaluation of the chosen rung can reuse
    /// it instead of re-simulating.
    pub report: SimReport,
}

/// Cached invariants of one (application, cluster schedule) pair.
///
/// All methods take the same `app` and `sched` the analysis was built
/// from; pairing it with a different application is a logic error (and
/// yields nonsense footprints, not memory unsafety).
#[derive(Debug)]
pub struct ScheduleAnalysis {
    lifetimes: Lifetimes,
    /// Sharing candidates, indexed by the `fb_cross_set_access` flag.
    candidates: [OnceLock<Vec<Candidate>>; 2],
    /// Empty-retention cluster peaks keyed by (cluster, rf, model).
    footprints: Mutex<HashMap<(usize, u64, bool), Words>>,
    /// RF-ladder evaluations keyed by a canonical hash of their
    /// non-structural inputs (see [`ScheduleAnalysis::ladder_eval`]).
    evals: Mutex<HashMap<u64, Arc<LadderEval>>>,
}

impl ScheduleAnalysis {
    /// Analyzes `app` under `sched`, computing lifetimes eagerly (every
    /// consumer needs them) and footprints/candidates lazily.
    #[must_use]
    pub fn new(app: &Application, sched: &ClusterSchedule) -> Self {
        ScheduleAnalysis {
            lifetimes: Lifetimes::analyze(app, sched),
            candidates: [OnceLock::new(), OnceLock::new()],
            footprints: Mutex::new(HashMap::new()),
            evals: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized RF-ladder evaluation under `key`, if present.
    #[must_use]
    pub fn ladder_hit(&self, key: u64) -> Option<Arc<LadderEval>> {
        self.evals
            .lock()
            .expect("not poisoned")
            .get(&key)
            .map(Arc::clone)
    }

    /// The memoized RF-ladder evaluation under `key`, computing it via
    /// `compute` on first request.
    ///
    /// The *caller* owns the key contract: `key` must cover every input
    /// of `compute` beyond the (application, cluster schedule) pair this
    /// analysis was built from — the reuse factor, the retention set,
    /// the context-load policy and Context Memory capacity, and the
    /// timing parameters the simulator reads. The Frame Buffer capacity
    /// is deliberately absent: stage building, op emission, and the
    /// cycle simulation never consume it, which is exactly what lets
    /// arch-only (FB-size) variants of one structure share rungs.
    ///
    /// Concurrent first requests may both run `compute`; the results
    /// are identical by the purity contract, so whichever insert lands
    /// last is indistinguishable from the other.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; errors are never cached.
    pub fn ladder_eval<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<LadderEval, E>,
    ) -> Result<Arc<LadderEval>, E> {
        if let Some(hit) = self.evals.lock().expect("not poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let eval = Arc::new(compute()?);
        self.evals
            .lock()
            .expect("not poisoned")
            .insert(key, Arc::clone(&eval));
        Ok(eval)
    }

    /// The lifetime analysis.
    #[must_use]
    pub fn lifetimes(&self) -> &Lifetimes {
        &self.lifetimes
    }

    /// The sharing candidates under the given cross-set capability,
    /// computed once per flag value.
    pub fn sharing_candidates(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        cross_set: bool,
    ) -> &[Candidate] {
        self.candidates[usize::from(cross_set)]
            .get_or_init(|| find_candidates_with(app, sched, &self.lifetimes, cross_set))
    }

    /// The peak Frame Buffer footprint of cluster `c` at reuse factor
    /// `rf` with no retention, memoized. Equals
    /// [`cluster_peak`](crate::cluster_peak) with an empty
    /// [`RetentionSet`].
    pub fn cluster_footprint(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        c: ClusterId,
        rf: u64,
        model: FootprintModel,
    ) -> Words {
        let key = (c.index(), rf, model == FootprintModel::Replacement);
        if let Some(&hit) = self.footprints.lock().expect("not poisoned").get(&key) {
            return hit;
        }
        let empty = RetentionSet::empty();
        let peak = cluster_peak(app, sched, &self.lifetimes, &empty, c, rf, model);
        self.footprints
            .lock()
            .expect("not poisoned")
            .insert(key, peak);
        peak
    }

    /// Whether every cluster fits `fbs` at `rf` with no retention
    /// (memoized counterpart of [`all_fit`](crate::all_fit)).
    pub fn all_fit_empty(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        rf: u64,
        model: FootprintModel,
        fbs: Words,
    ) -> bool {
        sched
            .clusters()
            .iter()
            .all(|cl| self.cluster_footprint(app, sched, cl.id(), rf, model) <= fbs)
    }

    /// The largest common reuse factor with no retention (memoized
    /// counterpart of [`max_common_rf`](crate::max_common_rf)).
    pub fn max_common_rf_empty(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        model: FootprintModel,
        fbs: Words,
    ) -> Option<u64> {
        let cap = app.iterations();
        let fits = |rf: u64| self.all_fit_empty(app, sched, rf, model, fbs);
        if !fits(1) {
            return None;
        }
        if fits(cap) {
            return Some(cap);
        }
        let mut lo = 1;
        let mut hi = 2;
        while hi < cap && fits(hi) {
            lo = hi;
            hi = (hi * 2).min(cap);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_fit, max_common_rf};
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    fn pipeline(iterations: u64) -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("an");
        let a = b.data("a", Words::new(40), DataKind::ExternalInput);
        let m = b.data("m", Words::new(24), DataKind::Intermediate);
        let f = b.data("f", Words::new(16), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(100), &[a], &[m]);
        let k1 = b.kernel("k1", 8, Cycles::new(100), &[a, m], &[f]);
        let app = b.iterations(iterations).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn memoized_footprints_match_fresh() {
        let (app, sched) = pipeline(32);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let lt = Lifetimes::analyze(&app, &sched);
        let empty = RetentionSet::empty();
        for c in sched.clusters() {
            for rf in [1u64, 2, 5, 32] {
                for model in [FootprintModel::Replacement, FootprintModel::NoReplacement] {
                    let fresh = cluster_peak(&app, &sched, &lt, &empty, c.id(), rf, model);
                    // Ask twice: once cold, once from the cache.
                    let cold = analysis.cluster_footprint(&app, &sched, c.id(), rf, model);
                    let warm = analysis.cluster_footprint(&app, &sched, c.id(), rf, model);
                    assert_eq!(cold, fresh);
                    assert_eq!(warm, fresh);
                }
            }
        }
    }

    #[test]
    fn memoized_rf_search_matches_fresh() {
        let (app, sched) = pipeline(64);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let lt = Lifetimes::analyze(&app, &sched);
        let empty = RetentionSet::empty();
        for fbs in [50u64, 120, 300, 1024, 65536] {
            let fbs = Words::new(fbs);
            let model = FootprintModel::Replacement;
            assert_eq!(
                analysis.max_common_rf_empty(&app, &sched, model, fbs),
                max_common_rf(&app, &sched, &lt, &empty, model, fbs),
                "fbs={fbs}"
            );
            assert_eq!(
                analysis.all_fit_empty(&app, &sched, 1, model, fbs),
                all_fit(&app, &sched, &lt, &empty, 1, model, fbs),
            );
        }
    }

    #[test]
    fn candidates_computed_once_per_flag() {
        let (app, sched) = pipeline(8);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let plain = analysis.sharing_candidates(&app, &sched, false);
        let fresh = find_candidates_with(&app, &sched, &Lifetimes::analyze(&app, &sched), false);
        assert_eq!(plain, &fresh[..]);
        // Second call returns the same cached slice.
        let again = analysis.sharing_candidates(&app, &sched, false);
        assert_eq!(plain.len(), again.len());
        let cross = analysis.sharing_candidates(&app, &sched, true);
        assert!(cross.len() >= plain.len());
    }
}

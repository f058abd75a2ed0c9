//! Shared plumbing for the experiment functions: trace generation and
//! replay with fixed seeds.
//!
//! One process-wide store memoizes both expensive steps. Each entry is
//! built on first demand, and later calls get a cheap clone of its
//! [`Arc<Trace>`]:
//!
//! - [`cached_trace`]: generated traces, keyed by `(name, seed)`. The ~10
//!   experiments of a `repro all` run read the same 25 traces.
//! - `replayed_trace`: those traces replayed on a fresh [`replay_on`]
//!   device, keyed by `(name, seed, scheme)`. Table IV, Fig. 5, Fig. 7
//!   and the Section III characteristics check all read the 4PS replays,
//!   so each trace is replayed once per process.
//!
//! The store lives as long as the process and never evicts, so a second
//! run of an experiment in the same process skips the work it memoizes.
//! That is why `hpsbench` runs each `paper_suite` pass in a fresh child
//! process. The lock is never held while a trace is generated or
//! replayed: [`hps_core::par`] runs nested calls inline on its workers,
//! so a held lock would serialise the pool or deadlock it.
//! Replay fan-out goes through [`hps_core::par`], which preserves result
//! order, so parallel sweeps stay byte-identical to serial ones.

use hps_core::hash::FxHashMap;
use hps_core::{par, Result};
use hps_emmc::{DeviceConfig, EmmcDevice, ReplayMetrics, SchemeKind};
use hps_trace::Trace;
use hps_workloads::{all_combos, all_individual, by_name, generate, stream, AppProfile};
use std::sync::{Arc, Mutex, OnceLock};

/// The master seed every experiment uses; re-running any experiment
/// regenerates identical traces and identical numbers.
pub const MASTER_SEED: u64 = 201_501_104; // IISWC 2015

/// `(name, seed, scheme)`: a generated trace when the scheme is `None`,
/// its replay on that scheme's [`replay_on`] device otherwise.
type TraceKey = (String, u64, Option<SchemeKind>);

/// Process-wide store of generated and replayed traces.
static TRACE_CACHE: OnceLock<Mutex<FxHashMap<TraceKey, Arc<Trace>>>> = OnceLock::new();

/// The stored trace for `key`, built by `build` on first use and shared
/// afterwards. The lock is released while `build` runs, so concurrent
/// first calls race benignly: both build identical records (generation
/// and replay are deterministic) and whoever inserts first wins.
#[expect(
    clippy::expect_used,
    reason = "a poisoned lock means a worker panicked; propagate it"
)]
fn memo(key: TraceKey, build: impl FnOnce() -> Trace) -> Arc<Trace> {
    let cache = TRACE_CACHE.get_or_init(Mutex::default);
    if let Some(trace) = cache.lock().expect("trace cache poisoned").get(&key) {
        return Arc::clone(trace);
    }
    let built = Arc::new(build());
    Arc::clone(
        cache
            .lock()
            .expect("trace cache poisoned")
            .entry(key)
            .or_insert(built),
    )
}

/// The trace for `(name, seed)`, generated on first use and shared
/// afterwards.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn cached_trace(name: &str, seed: u64) -> Arc<Trace> {
    memo((name.to_string(), seed, None), || {
        let profile = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        generate(&profile, seed)
    })
}

/// The trace for `(name, seed)` replayed on a fresh [`replay_on`] device
/// of `scheme`, replayed on first use and shared afterwards.
///
/// # Panics
///
/// Panics if the name is unknown or the replay fails (Table V capacity
/// fits every paper trace).
pub(crate) fn replayed_trace(name: &str, seed: u64, scheme: SchemeKind) -> Arc<Trace> {
    memo((name.to_string(), seed, Some(scheme)), || {
        let mut trace = Trace::clone(&cached_trace(name, seed));
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        replay_on(&mut trace, scheme).expect("Table V capacity fits every trace");
        trace
    })
}

/// The [`MASTER_SEED`] traces of `profiles` replayed on `scheme`, in
/// input order. Only traces the store lacks are replayed, fanned out
/// over the job pool; the result is byte-identical to a serial loop.
///
/// # Panics
///
/// Panics if any replay fails.
pub fn replayed_traces(profiles: &[AppProfile], scheme: SchemeKind) -> Vec<Trace> {
    let names = profiles.iter().map(|p| p.name).collect();
    par::par_map(names, |name| {
        Trace::clone(&replayed_trace(name, MASTER_SEED, scheme))
    })
}

/// Generates the 18 individual traces in table order (parallel on first
/// use, cached afterwards).
pub fn individual_traces() -> Vec<Trace> {
    par::par_map(all_individual(), |p| {
        Trace::clone(&cached_trace(p.name, MASTER_SEED))
    })
}

/// Generates the 7 combo traces in table order (parallel on first use,
/// cached afterwards).
pub fn combo_traces() -> Vec<Trace> {
    par::par_map(all_combos(), |p| {
        Trace::clone(&cached_trace(p.name, MASTER_SEED))
    })
}

/// Generates one trace by its paper name.
///
/// # Panics
///
/// Panics if the name is unknown.
pub fn trace_by_name(name: &str) -> Trace {
    Trace::clone(&cached_trace(name, MASTER_SEED))
}

/// Replays a trace on a fresh [`DeviceConfig::real_device`] of the given
/// scheme: RAM write buffer, interleaved channels and power model on, as
/// on the Nexus 5 whose behaviour Tables IV and Figs. 5/7 characterize.
/// (The Section V case study instead uses
/// [`hps_analysis::casestudy::case_study_device`], which disables the
/// buffer and the power model, matching the paper's simulator setup.)
///
/// # Errors
///
/// Propagates device errors.
pub fn replay_on(trace: &mut Trace, scheme: SchemeKind) -> Result<ReplayMetrics> {
    let mut dev = EmmcDevice::new(DeviceConfig::real_device(scheme))?;
    trace.reset_replay();
    dev.replay(trace)
}

/// Replays `scale` streamed generation epochs of one profile on the
/// [`replay_on`] device, without ever materializing the trace: requests
/// are produced one at a time, so resident memory stays independent of
/// `scale`. At `scale = 1` the metrics are identical to
/// `replay_on(&mut trace_by_name(name), scheme)` because the materialized
/// trace is the stream's single epoch under the same [`MASTER_SEED`].
///
/// # Errors
///
/// Propagates device errors.
pub fn stream_replay_on(
    profile: &AppProfile,
    scheme: SchemeKind,
    scale: u64,
) -> Result<ReplayMetrics> {
    let mut dev = EmmcDevice::new(DeviceConfig::real_device(scheme))?;
    let mut source = stream(profile, MASTER_SEED, scale);
    dev.replay_stream(&mut source)
}

/// A truncated version of a trace (first `n` records), for fast benches.
#[expect(clippy::expect_used, reason = "infallible by construction")]
pub fn truncate_trace(trace: &Trace, n: usize) -> Trace {
    let records: Vec<_> = trace.records().iter().take(n).copied().collect();
    Trace::from_records(trace.name().to_string(), records).expect("prefix stays sorted")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_by_name_matches_direct_generation() {
        let a = trace_by_name("Email");
        let b = generate(&by_name("Email").unwrap(), MASTER_SEED);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn truncation_keeps_prefix() {
        let t = trace_by_name("YouTube");
        let p = truncate_trace(&t, 100);
        assert_eq!(p.len(), 100);
        assert_eq!(p.records()[..], t.records()[..100]);
    }

    #[test]
    fn replay_on_fills_timestamps() {
        let mut t = truncate_trace(&trace_by_name("Email"), 50);
        let m = replay_on(&mut t, SchemeKind::Hps).unwrap();
        assert!(t.is_replayed());
        assert_eq!(m.total_requests, 50);
        assert_eq!(m.scheme, "HPS");
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        let _ = trace_by_name("NotAnApp");
    }

    #[test]
    fn stream_replay_matches_materialized_at_scale_one() {
        let profile = by_name("Email").unwrap();
        let streamed = stream_replay_on(&profile, SchemeKind::Ps4, 1).unwrap();
        let mut trace = trace_by_name("Email");
        let materialized = replay_on(&mut trace, SchemeKind::Ps4).unwrap();
        assert_eq!(streamed.total_requests, materialized.total_requests);
        assert_eq!(streamed.response_samples(), materialized.response_samples());
        assert_eq!(streamed.nowait_requests, materialized.nowait_requests);
        assert_eq!(streamed.ftl.gc_runs, materialized.ftl.gc_runs);
    }

    #[test]
    fn a_stored_replay_is_shared_not_redone() {
        let first = replayed_trace("CallIn", MASTER_SEED, SchemeKind::Ps4);
        let second = replayed_trace("CallIn", MASTER_SEED, SchemeKind::Ps4);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn a_stored_replay_equals_a_fresh_one_per_seed_and_scheme() {
        let keys = [
            (MASTER_SEED, SchemeKind::Ps4),
            (MASTER_SEED, SchemeKind::Hps),
            (MASTER_SEED + 1, SchemeKind::Ps4),
        ];
        let mut stored = Vec::new();
        for (seed, scheme) in keys {
            let trace = replayed_trace("CallIn", seed, scheme);
            let mut fresh = generate(&by_name("CallIn").unwrap(), seed);
            replay_on(&mut fresh, scheme).unwrap();
            assert!(trace.is_replayed(), "{seed} {scheme:?}");
            assert_eq!(trace.records(), fresh.records(), "{seed} {scheme:?}");
            stored.push(trace);
        }
        // Each key is an entry of its own.
        for (i, a) in stored.iter().enumerate() {
            for b in &stored[i + 1..] {
                assert_ne!(a.records(), b.records());
            }
        }
    }

    #[test]
    fn a_list_of_hits_and_misses_keeps_input_order() {
        // 8PS is used by no other test here, so only YouTube is stored.
        let hit = replayed_trace("YouTube", MASTER_SEED, SchemeKind::Ps8);
        let names = ["CallOut", "YouTube", "CallIn"];
        let profiles: Vec<_> = names.iter().map(|n| by_name(n).unwrap()).collect();
        let traces = replayed_traces(&profiles, SchemeKind::Ps8);
        let got: Vec<_> = traces.iter().map(Trace::name).collect();
        assert_eq!(got, names);
        assert_eq!(traces[1].records(), hit.records());
        for (name, trace) in names.iter().zip(&traces) {
            let stored = replayed_trace(name, MASTER_SEED, SchemeKind::Ps8);
            assert_eq!(trace.records(), stored.records(), "{name}");
        }
    }

    #[test]
    fn stream_replay_scales_request_count() {
        let profile = by_name("CallIn").unwrap();
        let m = stream_replay_on(&profile, SchemeKind::Ps4, 3).unwrap();
        assert_eq!(m.total_requests, profile.num_reqs * 3);
    }
}

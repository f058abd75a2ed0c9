//! Shared plumbing for the experiment functions: trace generation and
//! replay with fixed seeds.
//!
//! Trace generation is memoized process-wide: the ~10 experiments of a
//! `repro all` run used to regenerate the same 25 traces from scratch each
//! time. [`cached_trace`] generates each `(name, seed)` pair once — in
//! parallel on first demand — and hands out cheap clones of the cached
//! [`Arc<Trace>`] afterwards. Replay fan-out goes through
//! [`hps_core::par`], which preserves result order, so parallel sweeps
//! stay byte-identical to serial ones.

use hps_core::hash::FxHashMap;
use hps_core::{par, Result};
use hps_emmc::{DeviceConfig, EmmcDevice, ReplayMetrics, SchemeKind};
use hps_trace::Trace;
use hps_workloads::{all_combos, all_individual, by_name, generate, stream, AppProfile};
use std::sync::{Arc, Mutex, OnceLock};

/// The master seed every experiment uses; re-running any experiment
/// regenerates identical traces and identical numbers.
pub const MASTER_SEED: u64 = 201_501_104; // IISWC 2015

/// Generated traces keyed by `(name, seed)`.
type TraceMemo = FxHashMap<(String, u64), Arc<Trace>>;

/// Process-wide memo of generated traces.
static TRACE_CACHE: OnceLock<Mutex<TraceMemo>> = OnceLock::new();

/// The trace for `(name, seed)`, generated on first use and shared
/// afterwards. Generation is deterministic, so concurrent first calls race
/// benignly: whoever inserts first wins and both see identical records.
///
/// # Panics
///
/// Panics if the name is unknown.
#[expect(
    clippy::expect_used,
    reason = "a poisoned lock means a worker panicked; propagate it"
)]
pub fn cached_trace(name: &str, seed: u64) -> Arc<Trace> {
    let cache = TRACE_CACHE.get_or_init(Mutex::default);
    if let Some(trace) = cache
        .lock()
        .expect("trace cache poisoned")
        .get(&(name.to_string(), seed))
    {
        return Arc::clone(trace);
    }
    let profile = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let generated = Arc::new(generate(&profile, seed));
    Arc::clone(
        cache
            .lock()
            .expect("trace cache poisoned")
            .entry((name.to_string(), seed))
            .or_insert(generated),
    )
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

/// Replays each trace on a fresh device of `scheme` (see [`replay_on`]),
/// fanning the independent replays out over the job pool. Returns the
/// replayed traces in input order — byte-identical to a serial loop.
///
/// # Panics
///
/// Panics if any replay fails (Table V capacity fits every paper trace).
pub fn replay_each(traces: Vec<Trace>, scheme: SchemeKind) -> Vec<Trace> {
    par::par_map(traces, |mut trace| {
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        replay_on(&mut trace, scheme).expect("Table V capacity fits every trace");
        trace
    })
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
    fn stream_replay_scales_request_count() {
        let profile = by_name("CallIn").unwrap();
        let m = stream_replay_on(&profile, SchemeKind::Ps4, 3).unwrap();
        assert_eq!(m.total_requests, profile.num_reqs * 3);
    }
}

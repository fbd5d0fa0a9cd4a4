//! Differential battery under churn: the dense and tree clocks must tell
//! the same story about a reconfigured computation, with and without
//! faults.
//!
//! Two properties over seeded random [`ChurnPlan`]s:
//!
//! * **Fault-free churn is backend-invariant.** The engine is
//!   deterministic given a plan, so every backend must produce
//!   byte-identical logs and boundaries, and each backend's final-epoch
//!   stamps must encode the reconstructed computation's synchronous order
//!   exactly (Theorem 4, surviving arbitrarily many rebases).
//! * **Churn and crash faults compose.** Crashes make the interleaving
//!   racy (termination cascades), so backends may diverge byte-for-byte;
//!   what must still hold, per backend, is internal consistency of the
//!   durable pathway: persist the run with its reconfiguration records,
//!   recover it, materialise the latest epoch, and the recovered stamps
//!   must encode the recovered computation's order.
//!
//! Both backends hold every dimension, so a backend that cannot run a
//! plan fails the property; nothing is skipped.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime_core::clock::ClockBackend;
use synctime_runtime::reconstruct_from_logs;
use synctime_sim::{run_churn, ChurnConfig, ChurnPlan, ChurnRun, FaultPlan};
use synctime_trace::Oracle;

const BACKENDS: [ClockBackend; 2] = [ClockBackend::Dense, ClockBackend::Tree];

/// Suffix that keeps every case's store directory distinct, even when two
/// cases draw the same inputs in one process.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Runs the plan under one backend.
fn run_backend(
    plan: &ChurnPlan,
    backend: ClockBackend,
    fault: &FaultPlan,
) -> Result<ChurnRun, TestCaseError> {
    let cfg = ChurnConfig {
        backend,
        fault: fault.clone(),
    };
    run_churn(plan, &cfg).map_err(|e| TestCaseError::Fail(format!("backend {backend} failed: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fault-free: identical logs and boundaries across backends, and
    /// order-exact final-epoch stamps for each.
    #[test]
    fn fault_free_churn_is_backend_invariant(
        seed in 0u64..10_000,
        universe in 4usize..8,
        boundaries in 1usize..4,
    ) {
        let plan = ChurnPlan::random(universe, boundaries, 2, &mut StdRng::seed_from_u64(seed));
        let no_faults = FaultPlan::default();
        let mut reference: Option<ChurnRun> = None;
        for backend in BACKENDS {
            let run = run_backend(&plan, backend, &no_faults)?;
            let (comp, stamps) = reconstruct_from_logs(&run.final_epoch_logs())
                .map_err(|e| TestCaseError::Fail(format!("final epoch: {e}")))?;
            prop_assert!(
                stamps.encodes(&Oracle::new(&comp)),
                "backend {} stamps do not encode the final epoch's order",
                backend
            );
            match &reference {
                None => reference = Some(run),
                Some(r) => {
                    prop_assert_eq!(
                        &r.logs, &run.logs,
                        "backend {} produced different logs", backend
                    );
                    prop_assert_eq!(
                        &r.boundaries, &run.boundaries,
                        "backend {} produced different boundaries", backend
                    );
                }
            }
        }
    }

    /// Crashes composed with churn: per backend, the persisted run must
    /// recover and its latest epoch must materialise into stamps that
    /// encode the recovered computation's order.
    #[test]
    fn churn_and_crash_faults_compose_across_backends(
        seed in 0u64..10_000,
        universe in 4usize..8,
        boundaries in 1usize..3,
        crashes in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = ChurnPlan::random(universe, boundaries, 2, &mut rng);
        let fault = FaultPlan::random(universe, 4, crashes, 0, &mut rng);
        let root = std::env::temp_dir().join(format!(
            "synctime-churn-diff-{}-{}-{seed}-{universe}-{boundaries}-{crashes}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        for backend in BACKENDS {
            let run = run_backend(&plan, backend, &fault)?;
            let _ = std::fs::remove_dir_all(&root);
            let trace = backend.to_string();
            synctime_store::persist_logs_with_reconfigs(&root, &trace, &run.logs, &run.boundaries)
                .map_err(|e| TestCaseError::Fail(format!("persist ({trace}): {e}")))?;
            let rec = synctime_store::read_trace_dir(&root.join(&trace))
                .map_err(|e| TestCaseError::Fail(format!("recover ({trace}): {e}")))?;
            prop_assert_eq!(&rec.logs, &run.logs, "recovery must round-trip ({})", trace);
            let (epoch, comp, stamps) = synctime_store::materialize_latest_epoch(&rec)
                .map_err(|e| TestCaseError::Fail(format!("materialise ({trace}): {e}")))?;
            prop_assert_eq!(epoch, run.final_epoch(), "latest epoch mismatch ({})", trace);
            prop_assert!(
                stamps.encodes(&Oracle::new(&comp)),
                "backend {} recovered stamps do not encode the recovered order",
                trace
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

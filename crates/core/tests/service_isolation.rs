//! Multi-tenant isolation: one tenant's dying lanes never perturb
//! another tenant's trace.
//!
//! Two tenants share one [`ControlService`]: tenant A is the pinned
//! `simple_fault_free` golden scenario over ideal poll-engine TCP
//! lanes; tenant B has every lane partitioned from period 5 onward, so
//! it marches through quarantine to eviction while A runs.  The pin:
//! A's trace hash equals [`GOLDEN_SIMPLE_FAULT_FREE`] — the *same*
//! constant the single-process engine pins — even though B's lanes were
//! rotting in the same service loop the whole time, and B's collapse
//! produces exactly the typed event sequence the eviction policy
//! promises.
//!
//! [`ControlService`]: eucon_core::ControlService
//! [`GOLDEN_SIMPLE_FAULT_FREE`]: trace_hash::GOLDEN_SIMPLE_FAULT_FREE

mod trace_hash;

use std::time::{Duration, Instant};

use eucon_control::MpcConfig;
use eucon_core::{
    ControlService, ControllerSpec, EvictionPolicy, LaneModel, TenantEvent, TenantHealth,
    TenantSpec,
};
use eucon_sim::{FaultPlan, SimConfig};
use eucon_tasks::workloads;
use trace_hash::{hash_result, GOLDEN_PERIODS, GOLDEN_SIMPLE_FAULT_FREE};

/// Tenant A: exactly the `simple_fault_free` golden scenario, over
/// ideal poll-engine TCP lanes with a window generous enough for
/// deterministic delivery on loaded machines.
fn golden_tenant() -> TenantSpec {
    TenantSpec::new("golden", workloads::simple())
        .sim_config(SimConfig::constant_etf(0.5))
        .controller(ControllerSpec::Eucon(MpcConfig::simple()))
        .recv_timeout(Duration::from_millis(200))
}

#[test]
fn a_dying_tenant_never_perturbs_its_neighbour_trace() {
    let mut svc = ControlService::new(EvictionPolicy {
        quarantine_after: 3,
        evict_after: 8,
    });
    let a = svc.attach(golden_tenant()).expect("tenant A attaches");
    // Tenant B: both SIMPLE lanes partitioned from period 5 for the
    // rest of the run — total silence, straight into eviction.
    let b = svc
        .attach(
            TenantSpec::new("doomed", workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::Eucon(MpcConfig::simple()))
                .recv_timeout(Duration::from_millis(10))
                .faults(
                    FaultPlan::none()
                        .partition(0, 5, 1000)
                        .partition(1, 5, 1000),
                ),
        )
        .expect("tenant B attaches");

    svc.run(GOLDEN_PERIODS);

    // B collapsed on schedule: quarantined, then evicted, then frozen.
    assert_eq!(svc.health(b), Some(TenantHealth::Evicted));
    let b_transitions: Vec<&TenantEvent> = svc
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TenantEvent::Quarantined { tenant, .. }
                | TenantEvent::Evicted { tenant, .. }
                | TenantEvent::Recovered { tenant, .. } if *tenant == b
            )
        })
        .collect();
    assert!(
        matches!(
            b_transitions.as_slice(),
            [TenantEvent::Quarantined { .. }, TenantEvent::Evicted { .. },]
        ),
        "doomed tenant's transition sequence: {b_transitions:?}"
    );

    // A never wavered — and its trace is the golden trace, bit for bit.
    assert_eq!(svc.health(a), Some(TenantHealth::Healthy));
    let report = svc.detach(a).expect("tenant A detaches");
    assert_eq!(report.periods, GOLDEN_PERIODS);
    assert_eq!(report.transport.decode_errors, 0);
    assert_eq!(report.transport.dropped, 0);
    assert_eq!(
        hash_result(&report.result),
        GOLDEN_SIMPLE_FAULT_FREE,
        "tenant A's trace drifted from the single-process golden hash"
    );

    // The golden tenant never appears in a degradation event.
    assert!(
        !svc.events().iter().any(|e| matches!(
            e,
            TenantEvent::Quarantined { tenant, .. }
            | TenantEvent::Evicted { tenant, .. } if *tenant == a
        )),
        "tenant A was degraded: {:?}",
        svc.events()
    );
}

/// A tenant's lossy lanes cost its neighbours nothing: a modelled loss
/// is never waited for, so a service period with one lossy tenant among
/// eight takes about as long as one with none (waiting a 5 ms window out
/// on every lost report would multiply it).  Best of three alternating
/// rounds per side, so a busy host does not decide the comparison.
#[test]
fn a_lossy_tenant_does_not_stall_the_service_period() {
    const PERIODS: u32 = 200;
    let service_period = |lossy: bool| {
        let mut svc = ControlService::new(EvictionPolicy {
            quarantine_after: u32::MAX,
            evict_after: u32::MAX,
        });
        for i in 0..8 {
            let mut spec = TenantSpec::new(format!("t{i}"), workloads::simple())
                .sim_config(SimConfig::constant_etf(0.5))
                .controller(ControllerSpec::Eucon(MpcConfig::simple()));
            if lossy && i == 0 {
                spec = spec.report_lanes(LaneModel::lossy(0.3, 5));
            }
            svc.attach(spec).expect("tenant attaches");
        }
        svc.run(20);
        let started = Instant::now();
        svc.run(PERIODS as usize);
        let per_period = started.elapsed() / PERIODS;
        if lossy {
            let stats = svc.transport_stats(svc.tenant_ids()[0]).unwrap();
            assert!(stats.dropped > 0, "the lossy tenant must lose reports");
        }
        per_period
    };
    let (mut ideal, mut lossy) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        ideal = ideal.min(service_period(false));
        lossy = lossy.min(service_period(true));
    }
    assert!(
        lossy <= 2 * ideal,
        "service period {lossy:?} with one lossy tenant vs {ideal:?} all-ideal"
    );
}

/// `ATTACH` with an unknown workload answers with a *typed* first
/// token — `ERR unknown-workload ...` — so scripted clients can branch
/// on the refusal without scraping a generic parse-failure string.
#[test]
fn attach_with_unknown_workload_returns_typed_error() {
    let handle = eucon_core::ControlService::spawn(EvictionPolicy::default())
        .expect("service daemon spawns");
    let mut client =
        eucon_core::ServiceClient::connect(handle.addr()).expect("admin client connects");

    let resp = client
        .request("ATTACH ghost haskell 0.5")
        .expect("daemon answers");
    assert!(!resp.ok, "bogus workload must be refused: {resp:?}");
    assert!(
        resp.status.starts_with("unknown-workload"),
        "refusal must lead with the machine-readable token: {:?}",
        resp.status
    );
    assert!(
        resp.status.contains("haskell") && resp.status.contains("simple|medium"),
        "refusal names the offender and the accepted set: {:?}",
        resp.status
    );

    // Ordinary malformed ATTACHes still read as generic config errors,
    // not the typed token.
    let resp = client.request("ATTACH lonely").expect("daemon answers");
    assert!(!resp.ok);
    assert!(
        !resp.status.starts_with("unknown-workload"),
        "missing-argument errors must stay generic: {:?}",
        resp.status
    );

    handle.shutdown();
}

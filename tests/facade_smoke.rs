//! Workspace smoke test: the `regshare` facade must re-export every
//! subsystem crate, and a trivial ISRB share/reclaim round-trip must run
//! entirely through facade paths.

use regshare::refcount::{
    Isrb, IsrbConfig, ReclaimDecision, ReclaimRequest, ShareKind, ShareRequest, SharingTracker,
};
use regshare::types::{ArchReg, PhysReg, RegClass};

/// Every facade module re-export resolves to the expected type or
/// constructor. Compiling this function is most of the assertion.
#[test]
fn facade_reexports_resolve() {
    let _core_cfg: regshare::core::CoreConfig = regshare::core::CoreConfig::hpca16();
    let _isrb_cfg: regshare::refcount::IsrbConfig = IsrbConfig::hpca16();
    let _cache = regshare::mem::Cache::new(regshare::mem::CacheConfig {
        size_bytes: 512,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    });
    let _tage = regshare::predictors::Tage::new(regshare::predictors::TageConfig::hpca16());
    let _ddt_cfg = regshare::distance::DdtConfig::opt1k();
    let program = {
        let mut b = regshare::isa::program::ProgramBuilder::new();
        b.push(regshare::isa::Op::Halt);
        b.build()
    };
    assert!(
        !program.is_empty(),
        "program builder reachable through facade"
    );
    let suite = regshare::workloads::suite();
    assert!(!suite.is_empty(), "workload suite reachable through facade");
    let _window = regshare::bench::RunWindow::quick();
    assert!(
        regshare::RunOptions::default().job_count() >= 1,
        "sweep engine reachable through facade"
    );
    // The scenario layer is re-exported both under `bench` and at the
    // facade root.
    let s: regshare::Scenario = regshare::preset("headline").expect("built-in preset");
    assert_eq!(s.name, "headline");
    let _spec: regshare::VariantSpec = regshare::VariantSpec::hpca16();
    let _opts: regshare::RunOptions = regshare::RunOptions::default();
    assert!(matches!(
        regshare::bench::Scenario::parse("no name here"),
        Err(regshare::ScenarioError::Syntax { .. })
    ));
}

/// A share/reclaim round-trip through the facade: sharing a register makes
/// the first reclaim keep it and the second reclaim free it.
#[test]
fn isrb_share_reclaim_round_trip() {
    let mut isrb = Isrb::new(IsrbConfig::hpca16());
    let preg = PhysReg::new(42);
    let share = ShareRequest {
        class: RegClass::Int,
        preg,
        kind: ShareKind::Bypass {
            arch_dst: ArchReg::int(1),
        },
    };
    let reclaim = ReclaimRequest {
        class: RegClass::Int,
        preg,
        arch: ArchReg::int(1),
        renews: false,
    };

    assert!(isrb.try_share(&share), "empty ISRB must accept a share");
    assert!(isrb.is_shared(RegClass::Int, preg));
    assert_eq!(isrb.shared_count(), 1);

    // Two mappings reference p42 (the original plus the sharer): the first
    // reclaim must keep the register, the second must free it.
    assert_eq!(isrb.on_reclaim(&reclaim), ReclaimDecision::Keep);
    assert_eq!(isrb.on_reclaim(&reclaim), ReclaimDecision::Free);
    assert!(!isrb.is_shared(RegClass::Int, preg));
    assert_eq!(isrb.shared_count(), 0);
}

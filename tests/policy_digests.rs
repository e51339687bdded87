//! Behaviour pin for every fetch policy: each `PolicyKind` runs 4-ILP,
//! 4-MIX and 4-MEM on the baseline machine over a short window, and
//! `SimResult::digest` must equal the pinned value. Any change to what the
//! machine does under any policy moves at least one digest here, so
//! Tier-1 catches it without running the full experiment suite.
//!
//! Each row runs twice: on a bare `Simulator`, and through the campaign's
//! grid path (`Campaign::try_result`), which builds the policy and the
//! simulator its own way. Both must give the pinned digest.
//!
//! At four threads DWARN-PRIO matches DWARN (the hybrid gate only acts
//! below three threads), and on this window META-MISS never leaves its
//! DWarn candidate on MIX and MEM, so some digests repeat by design.

use dwarn_smt::core::PolicyKind;
use dwarn_smt::experiments::{Arch, Campaign, ExpParams, RunKey};
use dwarn_smt::pipeline::{SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};
use WorkloadClass::{Ilp, Mem, Mix};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;

/// `(policy, 4-thread workload class, digest)`.
const GOLDEN: [(&str, WorkloadClass, u64); 33] = [
    ("ICOUNT", Ilp, 0x9506_a5b1_9812_158f),
    ("ICOUNT", Mix, 0x81dc_7006_d120_d5e0),
    ("ICOUNT", Mem, 0xd737_ad3a_23f7_6ec7),
    ("STALL", Ilp, 0xfbed_1bc6_6d11_7745),
    ("STALL", Mix, 0xa9b5_0961_0a3b_eecd),
    ("STALL", Mem, 0x23b9_602f_6edb_3642),
    ("FLUSH", Ilp, 0x0add_67ee_e4ca_e462),
    ("FLUSH", Mix, 0x5ac8_957a_aa2d_c705),
    ("FLUSH", Mem, 0xdcfa_b5dd_0720_fd49),
    ("DG", Ilp, 0xecd5_77f4_4f67_86ae),
    ("DG", Mix, 0x87e4_59c5_aae6_eadf),
    ("DG", Mem, 0x8762_6106_c31b_907d),
    ("PDG", Ilp, 0x0b4e_781e_8395_741d),
    ("PDG", Mix, 0xa139_2d7c_5f76_79f7),
    ("PDG", Mem, 0x0d74_0ecc_471d_4d94),
    ("DWARN", Ilp, 0x2477_4fcc_b6f2_dade),
    ("DWARN", Mix, 0xb0a0_9938_ee34_8d47),
    ("DWARN", Mem, 0x9a5b_7356_2e49_577b),
    ("DWARN-PRIO", Ilp, 0x2477_4fcc_b6f2_dade),
    ("DWARN-PRIO", Mix, 0xb0a0_9938_ee34_8d47),
    ("DWARN-PRIO", Mem, 0x9a5b_7356_2e49_577b),
    ("DC-PRED", Ilp, 0x546a_0b8f_4948_84e7),
    ("DC-PRED", Mix, 0xbaea_1e2e_6c3a_0023),
    ("DC-PRED", Mem, 0x3b19_20b8_be74_245d),
    ("META-MISS", Ilp, 0xb16b_0a6e_8a43_38cc),
    ("META-MISS", Mix, 0xb0a0_9938_ee34_8d47),
    ("META-MISS", Mem, 0x9a5b_7356_2e49_577b),
    ("META-IPC", Ilp, 0xc55c_152e_ef1f_b99e),
    ("META-IPC", Mix, 0xbed3_44ea_f2ef_c2bb),
    ("META-IPC", Mem, 0xd69b_71e2_898c_faf1),
    ("META-EPS", Ilp, 0x4880_dd93_772d_146a),
    ("META-EPS", Mix, 0xc274_b5be_07f6_eed7),
    ("META-EPS", Mem, 0x5c02_9710_1c75_eeb1),
];

#[test]
fn every_policy_reproduces_its_pinned_digests() {
    let kinds = PolicyKind::paper_set()
        .into_iter()
        .chain([PolicyKind::DWarnPriorityOnly, PolicyKind::DcPred])
        .chain(PolicyKind::meta_set());
    for kind in kinds {
        let rows = GOLDEN.iter().filter(|g| g.0 == kind.name()).count();
        assert_eq!(rows, 3, "{} needs one pinned digest per class", kind.name());
    }

    let campaign = Campaign::new(ExpParams {
        warmup: WARMUP,
        measure: MEASURE,
    });
    let mut drift = Vec::new();
    for (name, class, want) in GOLDEN {
        let kind = PolicyKind::parse(name).expect("known policy");
        let wl = workload(4, class);
        let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), &wl.thread_specs());
        let bare = sim.run(WARMUP, MEASURE).digest();
        let grid = campaign
            .try_result(&RunKey::workload(Arch::Baseline, &wl, kind))
            .expect("grid run completes")
            .digest();
        for (path, got) in [("simulator", bare), ("campaign", grid)] {
            if got != want {
                drift.push(format!(
                    "{name} @{} ({path}): {got:#018x} (pinned {want:#018x})",
                    wl.name
                ));
            }
        }
    }
    assert!(drift.is_empty(), "digests moved:\n{}", drift.join("\n"));
}

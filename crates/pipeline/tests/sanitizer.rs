//! Sanitizer end-to-end tests: a clean machine audits clean (and
//! bit-identical to an unsanitized run), and mutation-style corruptions of
//! each invariant class are actually caught with the matching code.

use smt_pipeline::{
    FetchPolicy, InvariantCode, Mutation, NullProbe, PolicyView, RecordingSanitizer, SimConfig,
    Simulator, ThreadSpec,
};
use smt_trace::profile;

struct IcountTest;

impl FetchPolicy for IcountTest {
    fn name(&self) -> &'static str {
        "ICOUNT-TEST"
    }
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        view.icount_order_into(out);
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

fn specs() -> Vec<ThreadSpec> {
    vec![
        ThreadSpec::new(profile::mcf()),
        ThreadSpec::new(profile::bzip2()),
    ]
}

fn sanitized() -> Simulator<NullProbe, RecordingSanitizer> {
    Simulator::try_sanitized(
        SimConfig::baseline(),
        Box::new(IcountTest) as Box<dyn FetchPolicy>,
        &specs(),
        RecordingSanitizer::new(),
    )
    .expect("baseline config is valid")
}

/// Run long enough for every machine structure (ROB, IQs, event wheel,
/// outstanding misses, declarations) to be exercised.
const WARM: u64 = 3_000;

#[test]
fn clean_machine_audits_clean_and_stays_bit_identical() {
    let mut plain = Simulator::new(SimConfig::baseline(), Box::new(IcountTest), &specs());
    let mut checked = sanitized();
    let r_plain = plain.run(1_000, 5_000);
    let r_checked = checked.run(1_000, 5_000);
    assert_eq!(
        r_plain.digest(),
        r_checked.digest(),
        "the sanitizer is observation-only; sanitized runs must be bit-identical"
    );
    assert!(
        checked.sanitizer().is_clean(),
        "clean machine reported violations:\n{}",
        checked.sanitizer().render_report()
    );
}

/// Inject one mutation into a warmed-up machine and return the recorded
/// violations.
fn violations_after(m: Mutation) -> RecordingSanitizer {
    let mut sim = sanitized();
    for _ in 0..WARM {
        sim.step();
    }
    assert!(
        sim.sanitizer().is_clean(),
        "machine must be clean before the mutation:\n{}",
        sim.sanitizer().render_report()
    );
    // Some corruptions need a particular transient state (a free ROB slot,
    // a free register); step until the injection lands.
    let mut guard = 0;
    while !sim.inject_for_test(m) {
        sim.step();
        guard += 1;
        assert!(guard < 10_000, "mutation {m:?} never became applicable");
    }
    sim.force_audit();
    sim.into_sanitizer()
}

#[test]
fn past_due_event_also_reports_expected_cycle() {
    let rec = violations_after(Mutation::PastDueEvent);
    let v = rec
        .violations()
        .iter()
        .find(|v| v.code == InvariantCode::EventPastDue)
        .expect("INV007 recorded");
    assert!(v.actual < v.expected, "the event is due in the past: {v}");
    assert!(
        !v.snapshot.threads.is_empty(),
        "snapshot carries thread state"
    );
}

/// A policy that lies: produces a duplicated fetch order.
struct DuplicatingPolicy;

impl FetchPolicy for DuplicatingPolicy {
    fn name(&self) -> &'static str {
        "DUP-TEST"
    }
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..view.num_threads());
        out.push(0); // thread 0 twice
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
}

/// A policy whose published order contradicts its own audit rule — the
/// plumbing that lets DWarn's group/gating invariants surface as INV013.
struct SelfContradictingPolicy;

impl FetchPolicy for SelfContradictingPolicy {
    fn name(&self) -> &'static str {
        "CONTRADICT-TEST"
    }
    fn fetch_order_into(&mut self, view: &PolicyView, out: &mut Vec<usize>) {
        // Claims (via audit) to order by ascending ICOUNT, but emits
        // descending order.
        view.icount_order_into(out);
        out.reverse();
    }
    fn quiescence_safe(&self) -> bool {
        false
    }
    fn audit_order(&self, view: &PolicyView, order: &[usize]) -> Result<(), String> {
        for w in order.windows(2) {
            if view.threads[w[0]].icount > view.threads[w[1]].icount {
                return Err(format!(
                    "thread {} (icount {}) ordered before thread {} (icount {})",
                    w[0], view.threads[w[0]].icount, w[1], view.threads[w[1]].icount
                ));
            }
        }
        Ok(())
    }
}

/// What makes one invariant fire: a corruption injected into a warmed-up
/// machine, or a policy whose fetch order breaks the rule.
enum Seed {
    Mutation(Mutation),
    Policy(Box<dyn FetchPolicy>),
}

/// The seed that fires each invariant. Exhaustive with no wildcard: a new
/// `InvariantCode` does not compile until it names the seed that proves
/// the sanitizer catches it.
fn firing_seed(code: InvariantCode) -> Seed {
    match code {
        InvariantCode::RegConservationInt => Seed::Mutation(Mutation::LeakIntReg),
        InvariantCode::RegConservationFp => Seed::Mutation(Mutation::LeakFpReg),
        InvariantCode::IqConservation => Seed::Mutation(Mutation::LeakIqEntry),
        InvariantCode::RobConservation => Seed::Mutation(Mutation::LeakRobSlot),
        InvariantCode::RobAgeOrder => Seed::Mutation(Mutation::RobAgeSwap),
        InvariantCode::IcountConsistency => Seed::Mutation(Mutation::InflateIcount),
        InvariantCode::EventPastDue => Seed::Mutation(Mutation::PastDueEvent),
        InvariantCode::EventLenMismatch => Seed::Mutation(Mutation::SkewEventLen),
        // The corrupted counter would sort thread 0 into DWarn's Dmiss
        // group without an outstanding L1 miss.
        InvariantCode::DmissConsistency => Seed::Mutation(Mutation::PhantomDmiss),
        InvariantCode::DeclaredConsistency => Seed::Mutation(Mutation::PhantomDeclared),
        // A lost in-flight instruction: the slab still counts it live, but
        // no fetch queue or ROB holds it any more.
        InvariantCode::SlabConservation => Seed::Mutation(Mutation::DropRobEntry),
        InvariantCode::PolicyOrder => Seed::Policy(Box::new(DuplicatingPolicy)),
        InvariantCode::PolicyGating => Seed::Policy(Box::new(SelfContradictingPolicy)),
        InvariantCode::CacheTagIntegrity => Seed::Mutation(Mutation::DuplicateCacheTag),
    }
}

/// Plant `code`'s seed and return what the sanitizer recorded.
fn fire(code: InvariantCode) -> RecordingSanitizer {
    match firing_seed(code) {
        Seed::Mutation(m) => violations_after(m),
        Seed::Policy(policy) => {
            let mut sim = Simulator::try_sanitized(
                SimConfig::baseline(),
                policy,
                &specs(),
                RecordingSanitizer::new(),
            )
            .expect("valid config");
            // A reversed order is only provably wrong once the threads'
            // ICOUNTs diverge, so step until the audit catches it.
            for _ in 0..WARM {
                sim.step();
                if sim.sanitizer().saw(code) {
                    break;
                }
            }
            sim.into_sanitizer()
        }
    }
}

#[test]
fn every_invariant_fires_and_is_documented() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repository root");
    for &code in InvariantCode::ALL {
        let rec = fire(code);
        assert!(
            rec.saw(code),
            "{code}'s seed did not fire it; got:\n{}",
            rec.render_report()
        );
        assert!(
            design.contains(code.code()),
            "{code} is not documented in DESIGN.md"
        );
    }
}

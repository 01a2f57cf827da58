//! Nothing the pipeline *returns* may depend on hash values or map
//! iteration order.
//!
//! The hot-path crates hash through `soi_netlist::fx` (an FxHash-style
//! mixer with a process-wide test seed). Perturbing that seed reshuffles
//! the bucket iteration order of every subsequently created map —
//! builder strashing, BLIF signal resolution, unate memoization, cone
//! keying, the equivalence checker's signature classes and strash tables
//! — wholesale. If any of those orders leaks into an output, the exported
//! netlist or the proof report changes with the seed; this test maps and
//! proves the whole registry under two far-apart seeds and requires
//! byte-identical exports and identical equivalence reports. Each mapping
//! is proved twice: by `check_mapped`, which the certificate decides, and
//! by the SAT sweep on the lowered circuit, whose report (verdict, SAT
//! calls, merges, conflicts, refinement lanes) is where the checker's map
//! order could leak.
//!
//! Everything lives in one `#[test]` because the seed is process-global
//! and the harness runs `#[test]` functions concurrently: two tests
//! flipping the seed under each other would race.

use soi_domino::cec::{check_mapped, check_networks, lower, CecOptions, CecPath, CecReport};
use soi_domino::circuits::registry;
use soi_domino::domino::export;
use soi_domino::mapper::{MapConfig, Mapper};
use soi_domino::netlist::{fx, restructure};

/// Seeds far apart in every bit pattern; the first is the production
/// default, so the sweep also covers the shipped configuration.
const SEEDS: [u64; 2] = [0, 0x9e37_79b9_7f4a_7c15];

fn registry_names() -> Vec<&'static str> {
    let mut names = registry::TABLE2.to_vec();
    for name in registry::TABLE1 {
        if !names.contains(name) {
            names.push(name);
        }
    }
    names
}

/// Builds, maps and proves every registry circuit under `seed`,
/// returning the exported netlist text, the `check_mapped` report and the
/// sweep's report per circuit. The build happens *inside* the seeded region on purpose:
/// construction-side maps (strashing, signal resolution) must not leak
/// their iteration order into node numbering any more than the mapper's
/// or the checker's maps may leak into the result.
fn map_registry(seed: u64) -> Vec<(String, String, CecReport, CecReport)> {
    fx::set_global_seed(seed);
    let opts = CecOptions::default();
    let rows = registry_names()
        .into_iter()
        .map(|name| {
            let network = registry::benchmark(name).expect("registered benchmark");
            let result = Mapper::soi(MapConfig::default())
                .run(&network)
                .expect("registry circuit maps");
            let report =
                check_mapped(&network, &result.circuit, &opts).expect("registry mapping checks");
            let lowered = lower::circuit_to_network(&result.circuit);
            let sweep = check_networks(&network, &lowered, &opts).expect("registry mapping sweeps");
            (
                name.to_string(),
                export::netlist(&result.circuit),
                report,
                sweep,
            )
        })
        .collect();
    fx::set_global_seed(0);
    rows
}

#[test]
fn results_are_hash_seed_independent() {
    // 1. Construction: the same generator must produce the same network
    //    (node for node, id for id) under any hasher seed — shuffled
    //    bucket orders in the build-side maps included. `reassociate`
    //    rides along because its sweep rebuilds the network through
    //    map-backed cone tracing.
    for name in ["b9", "c880", "frg1"] {
        let builds: Vec<_> = SEEDS
            .iter()
            .map(|&seed| {
                fx::set_global_seed(seed);
                let network = registry::benchmark(name).expect("registered benchmark");
                let shuffled = restructure::reassociate(&network, 7);
                fx::set_global_seed(0);
                (network, shuffled)
            })
            .collect();
        assert_eq!(
            builds[0].0, builds[1].0,
            "{name}: built network depends on the hasher seed"
        );
        assert_eq!(
            builds[0].1, builds[1].1,
            "{name}: reassociated network depends on the hasher seed"
        );
        assert_eq!(
            restructure::shape_digest(&builds[0].0),
            restructure::shape_digest(&builds[1].0),
            "{name}: shape digest depends on the hasher seed"
        );
    }

    // 2. Mapping and proof: every registry circuit, both seeds,
    //    byte-identical exported netlists and identical check reports.
    let baseline = map_registry(SEEDS[0]);
    let perturbed = map_registry(SEEDS[1]);
    assert_eq!(baseline.len(), perturbed.len());
    for ((name, netlist_a, report_a, sweep_a), (name_b, netlist_b, report_b, sweep_b)) in
        baseline.iter().zip(&perturbed)
    {
        assert_eq!(name, name_b);
        assert!(
            netlist_a == netlist_b,
            "{name}: mapped netlist differs across hasher seeds — a map's iteration \
             order leaked into the result"
        );
        assert!(report_a.is_equivalent(), "{name}: {:?}", report_a.verdict);
        assert_eq!(report_a.path, CecPath::Certificate, "{name}");
        assert_eq!(
            report_a, report_b,
            "{name}: equivalence report differs across hasher seeds — the checker's \
             map order leaked into its proof"
        );
        assert!(sweep_a.is_equivalent(), "{name}: {:?}", sweep_a.verdict);
        assert_eq!(sweep_a.path, CecPath::Sweep, "{name}");
        assert_eq!(
            sweep_a, sweep_b,
            "{name}: sweep report differs across hasher seeds — the checker's \
             map order leaked into its proof"
        );
    }
    // The sweep did real work under the perturbed seed: merges and SAT
    // calls to compare, not a registry of zero counters.
    let total = |pick: fn(&CecReport) -> u64| perturbed.iter().map(|r| pick(&r.3)).sum::<u64>();
    assert!(
        total(|r| r.internal_merges as u64) > 0,
        "no internal merges"
    );
    assert!(total(|r| r.sat_calls) > 0, "no SAT calls");
}

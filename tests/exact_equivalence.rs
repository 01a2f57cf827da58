//! Exact verification of the unate conversion on registry benchmarks: the
//! SAT sweep proves each source network equivalent to its lowered unate
//! network. (Mapped circuits are proved in `tests/cec_registry.rs`.)

use soi_domino::cec::{check_networks, CecOptions};
use soi_domino::circuits::registry;
use soi_domino::unate::{convert, Options};

#[test]
fn unate_conversion_is_exactly_equivalent() {
    for name in ["cm150", "mux", "z4ml", "9symml", "frg1", "c432"] {
        let network = registry::benchmark(name).expect("registered");
        let unate = convert(&network, &Options::default()).expect("converts");
        let report = check_networks(&network, &unate.to_network(), &CecOptions::default())
            .expect("the interfaces match");
        assert!(
            report.is_equivalent(),
            "{name}: unate conversion changed the function: {:?}",
            report.verdict
        );
    }
}

//! Benchmark corpus: vendored AIGER circuits plus large synthetic networks.
//!
//! The EPFL/HWMCC-style evaluation flow wants two kinds of material that the
//! parametric generators alone don't give us:
//!
//! * **Vendored AIGs** — small, committed `.aag`/`.aig` files under
//!   `crates/circuits/corpus/`, embedded with `include_str!` /
//!   `include_bytes!` so CI exercises the real AIGER front-end without any
//!   network access or filesystem layout assumptions. Each was produced by
//!   writing a generator network through `soi_netlist::aiger` and verified
//!   equivalent by bit-parallel simulation.
//! * **Synthetic ≥100k-gate networks** — EPFL-style arithmetic (a wide
//!   array multiplier) and control (seeded random control logic) profiles,
//!   materialized on demand by the deterministic generators. These are what
//!   the scale benchmarks and the worklist-parser perf bounds run against;
//!   nothing that large is committed to the repository.
//!
//! [`load`] resolves a corpus name to a [`Network`]; [`load_path`] reads a
//! file from disk dispatching on extension (`.aag`, `.aig`, `.blif`). Both
//! return a typed [`CorpusError`] — an unreadable or malformed corpus file
//! is a reportable error, never a skip or a panic.

use std::fmt;
use std::path::Path;

use soi_netlist::{aiger, blif, Network, NetworkError};

use crate::arith::multiplier;
use crate::misc::random::{generate, RandomSpec};

/// Error raised while resolving or materializing a corpus circuit.
#[derive(Debug)]
pub enum CorpusError {
    /// The requested name is not in the corpus; the message lists what is.
    UnknownCircuit {
        /// The name that failed to resolve.
        name: String,
    },
    /// A file path had an extension other than `.aag`, `.aig` or `.blif`.
    UnsupportedExtension {
        /// The offending path.
        path: String,
    },
    /// The file could not be read from disk.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// The circuit text/bytes failed to parse or validate.
    Net {
        /// Which corpus entry or file was being loaded.
        context: String,
        /// The underlying netlist error.
        source: NetworkError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::UnknownCircuit { name } => {
                write!(f, "unknown corpus circuit `{name}`")
            }
            CorpusError::UnsupportedExtension { path } => {
                write!(
                    f,
                    "`{path}`: unsupported extension (expected .aag, .aig or .blif)"
                )
            }
            CorpusError::Io { path, message } => write!(f, "`{path}`: {message}"),
            CorpusError::Net { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Net { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Where a corpus entry's bits come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Vendored ASCII AIGER, embedded in the binary.
    VendoredAscii(&'static str),
    /// Vendored binary AIGER, embedded in the binary.
    VendoredBinary(&'static [u8]),
    /// Materialized on demand by a deterministic generator.
    Synthetic,
}

/// One corpus circuit: a name [`load`] resolves, where its bits come from,
/// and what it is.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Corpus-unique name (`load` key).
    pub name: &'static str,
    /// Where the bits come from.
    pub source: Source,
    /// One-line description.
    pub description: &'static str,
}

const ADD8_AAG: &str = include_str!("../corpus/add8.aag");
const CMP8_AAG: &str = include_str!("../corpus/cmp8.aag");
const COUNT4OF8_AAG: &str = include_str!("../corpus/count4of8.aag");
const MUX16_AAG: &str = include_str!("../corpus/mux16.aag");
const PARITY8_AAG: &str = include_str!("../corpus/parity8.aag");
const MULT4_AIG: &[u8] = include_bytes!("../corpus/mult4.aig");

/// The corpus manifest, vendored entries first, then synthetic tiers in
/// increasing size.
pub const ENTRIES: &[CorpusEntry] = &[
    CorpusEntry {
        name: "add8",
        source: Source::VendoredAscii(ADD8_AAG),
        description: "8-bit ripple-carry adder, vendored ASCII AIGER",
    },
    CorpusEntry {
        name: "cmp8",
        source: Source::VendoredAscii(CMP8_AAG),
        description: "8-bit magnitude comparator, vendored ASCII AIGER",
    },
    CorpusEntry {
        name: "count4of8",
        source: Source::VendoredAscii(COUNT4OF8_AAG),
        description: "symmetric popcount==4 detector, vendored ASCII AIGER",
    },
    CorpusEntry {
        name: "mux16",
        source: Source::VendoredAscii(MUX16_AAG),
        description: "16-way multiplexer tree, vendored ASCII AIGER",
    },
    CorpusEntry {
        name: "parity8",
        source: Source::VendoredAscii(PARITY8_AAG),
        description: "8-bit parity tree, vendored ASCII AIGER",
    },
    CorpusEntry {
        name: "mult4",
        source: Source::VendoredBinary(MULT4_AIG),
        description: "4x4 array multiplier, vendored binary AIGER",
    },
    CorpusEntry {
        name: "synth-mult32",
        source: Source::Synthetic,
        description: "32x32 array multiplier (EPFL arithmetic profile)",
    },
    CorpusEntry {
        name: "synth-control-25k",
        source: Source::Synthetic,
        description: "seeded random control logic, ~30k gates",
    },
    CorpusEntry {
        name: "synth-mult136",
        source: Source::Synthetic,
        description: "136x136 array multiplier, >=100k gates (EPFL arithmetic profile)",
    },
    CorpusEntry {
        name: "synth-control-120k",
        source: Source::Synthetic,
        description: "seeded random control logic, >=100k gates (EPFL control profile)",
    },
];

/// Returns the manifest entry for `name`, if any.
pub fn entry(name: &str) -> Option<&'static CorpusEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// All corpus circuit names, manifest order.
pub fn names() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.name).collect()
}

/// Materializes the named corpus circuit.
///
/// Vendored entries parse their embedded AIGER bits; synthetic entries run
/// their deterministic generator (same name → identical network, always).
///
/// # Errors
///
/// [`CorpusError::UnknownCircuit`] for names outside the manifest and
/// [`CorpusError::Net`] if a vendored file fails to parse (which would mean
/// corrupt vendored data — the tests parse every entry).
pub fn load(name: &str) -> Result<Network, CorpusError> {
    let e = entry(name).ok_or_else(|| CorpusError::UnknownCircuit {
        name: name.to_string(),
    })?;
    let net_err = |source| CorpusError::Net {
        context: format!("corpus circuit `{name}`"),
        source,
    };
    match e.source {
        Source::VendoredAscii(text) => aiger::parse_ascii(text).map_err(net_err),
        Source::VendoredBinary(bytes) => aiger::parse_binary(bytes).map_err(net_err),
        Source::Synthetic => Ok(synthesize(name)),
    }
}

/// Builds a synthetic corpus entry by name. Panics on unknown names — the
/// manifest and this match are kept in sync by `load` and the tests.
fn synthesize(name: &str) -> Network {
    match name {
        "synth-mult32" => multiplier::array(32),
        "synth-mult136" => multiplier::array(136),
        "synth-control-25k" => generate(&control_spec(name, 128, 32, 25_000)),
        "synth-control-120k" => generate(&control_spec(name, 256, 64, 120_000)),
        other => unreachable!("synthetic corpus entry `{other}` has no generator"),
    }
}

/// Control-profile spec shared by the synthetic control entries: a low XOR
/// ratio keeps the unate conversion's binate duplication from dominating
/// the downstream mapping benchmarks.
fn control_spec(name: &str, inputs: usize, outputs: usize, gates: usize) -> RandomSpec {
    let mut spec = RandomSpec::control(name, inputs, outputs, gates, 0xC0FFEE);
    spec.xor_ratio = 0.02;
    spec
}

/// Reads a circuit from disk, dispatching on the file extension: `.aag`
/// (ASCII AIGER), `.aig` (binary AIGER) or `.blif`.
///
/// # Errors
///
/// [`CorpusError::UnsupportedExtension`] for anything else,
/// [`CorpusError::Io`] when the file cannot be read, and
/// [`CorpusError::Net`] when it fails to parse.
pub fn load_path(path: &Path) -> Result<Network, CorpusError> {
    let display = path.display().to_string();
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let net_err = |source| CorpusError::Net {
        context: format!("`{display}`"),
        source,
    };
    match ext.as_deref() {
        Some("aag") => {
            let text = read_text(path)?;
            aiger::parse_ascii(&text).map_err(net_err)
        }
        Some("aig") => {
            let bytes = std::fs::read(path).map_err(|e| CorpusError::Io {
                path: display.clone(),
                message: e.to_string(),
            })?;
            aiger::parse_binary(&bytes).map_err(net_err)
        }
        Some("blif") => {
            let text = read_text(path)?;
            blif::parse(&text).map_err(net_err)
        }
        _ => Err(CorpusError::UnsupportedExtension { path: display }),
    }
}

fn read_text(path: &Path) -> Result<String, CorpusError> {
    std::fs::read_to_string(path).map_err(|e| CorpusError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vendored_entry_parses_and_validates() {
        for e in ENTRIES {
            if matches!(e.source, Source::Synthetic) {
                continue;
            }
            let net = load(e.name).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            net.validate().unwrap();
            assert!(net.stats().binary_gates > 0, "{} is trivial", e.name);
        }
    }

    #[test]
    fn small_synthetics_materialize_deterministically() {
        let a = load("synth-mult32").unwrap();
        let b = load("synth-mult32").unwrap();
        assert_eq!(a, b);
        a.validate().unwrap();
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = load("no-such-circuit").unwrap_err();
        assert!(matches!(err, CorpusError::UnknownCircuit { .. }));
        assert!(err.to_string().contains("no-such-circuit"));
    }

    #[test]
    fn load_path_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("soi_corpus_test");
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("t.aag");
        std::fs::write(&aag, ADD8_AAG).unwrap();
        let net = load_path(&aag).unwrap();
        net.validate().unwrap();

        let aig = dir.join("t.aig");
        std::fs::write(&aig, MULT4_AIG).unwrap();
        load_path(&aig).unwrap().validate().unwrap();

        let err = load_path(&dir.join("t.v")).unwrap_err();
        assert!(matches!(err, CorpusError::UnsupportedExtension { .. }));

        let err = load_path(&dir.join("missing.aag")).unwrap_err();
        assert!(matches!(err, CorpusError::Io { .. }));

        let bad = dir.join("bad.aag");
        std::fs::write(&bad, "aag oops\n").unwrap();
        let err = load_path(&bad).unwrap_err();
        assert!(matches!(err, CorpusError::Net { .. }), "{err}");
    }

    #[test]
    fn vendored_ascii_and_binary_agree_for_mult4() {
        let from_binary = load("mult4").unwrap();
        let reference = crate::arith::multiplier::array(4);
        assert!(soi_netlist::sim::random_equivalent(&from_binary, &reference, 64, 9).unwrap());
    }
}

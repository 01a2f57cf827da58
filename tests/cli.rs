//! The `soi-domino` binary end to end: `verify` proves mappings through
//! their certificates, AIGER files load by extension and every other file
//! as BLIF, bad and mutated inputs exit non-zero with one `error:` line
//! instead of a panic, and a reader that closes the output early ends the
//! run quietly.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use soi_domino::circuits::registry;
use soi_domino::guard::inject;
use soi_domino::netlist::{aiger, blif};

fn soi_domino(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soi-domino"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn corpus_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("crates/circuits/corpus/{name}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A failed run: non-zero exit, one `error:` line, no panic.
fn assert_clean_failure(out: &Output, what: &str) {
    let err = stderr(out);
    assert!(!out.status.success(), "{what}: exited 0");
    assert!(
        err.starts_with("error: "),
        "{what}: no error line in {err:?}"
    );
    assert_eq!(
        err.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{what}: {err}"
    );
    assert!(!err.contains("panicked"), "{what}: panicked: {err}");
}

#[test]
fn verify_proves_registry_and_aiger_circuits_by_certificate() {
    let aag = corpus_file("add8.aag");
    let aig = corpus_file("mult4.aig");
    for args in [
        vec!["verify", "c880"],
        vec!["verify", aag.to_str().expect("utf-8 path")],
        vec![
            "verify",
            aig.to_str().expect("utf-8 path"),
            "--algorithm",
            "rs",
        ],
    ] {
        let out = soi_domino(&args);
        let text = stdout(&out);
        assert!(out.status.success(), "{args:?}: {text}{}", stderr(&out));
        assert!(
            text.contains("equivalence: equivalent via certificate"),
            "{args:?}: {text}"
        );
        assert!(text.contains("fallbacks: 0"), "{args:?}: {text}");
        assert!(text.contains("pbe-safe: true"), "{args:?}: {text}");
    }
}

/// Files without an AIGER extension are read as BLIF, whatever their
/// name.
#[test]
fn blif_loads_under_any_extension() {
    let blif = ".model tiny\n.inputs a b c\n.outputs f\n\
                .names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n.end\n";
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for name in ["cli-tiny", "cli-tiny.txt", "cli-tiny.blif"] {
        let path = dir.join(name);
        std::fs::write(&path, blif).expect("temp file writes");
        let out = soi_domino(&["verify", path.to_str().expect("utf-8 path")]);
        let text = stdout(&out);
        assert!(out.status.success(), "{name}: {text}{}", stderr(&out));
        assert!(
            text.contains("equivalence: equivalent via certificate"),
            "{name}: {text}"
        );
    }
}

#[test]
fn bad_inputs_fail_with_an_error_line() {
    let bytes = std::fs::read(corpus_file("mult4.aig")).expect("vendored file reads");
    let truncated = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-truncated.aig");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("temp file writes");
    let truncated = truncated.to_str().expect("utf-8 path").to_string();
    for args in [
        vec!["verify", truncated.as_str()],
        vec!["map", truncated.as_str()],
        vec!["verify", "no-such-circuit"],
        vec!["verify", "c880", "--algorithm", "nope"],
        vec!["verify"],
        vec!["frobnicate"],
        // Clock weights whose worst-case cost overflows the DP's u32
        // arithmetic: a typed budget error, not a wrapped cost or a panic.
        vec!["map", "c880", "--clock-weight", "500000000"],
        vec!["map", "c880", "--clock-weight", "4294967295"],
    ] {
        assert_clean_failure(&soi_domino(&args), &format!("{args:?}"));
    }
}

/// A fuzz sweep over the input surface: seeded `guard::inject` mutants of
/// two registry circuits — the four BLIF mutators on `blif::write`'s
/// output, truncation and garbling on both AIGER forms, header
/// perturbation on the ASCII form — each through `map` and `verify`, one
/// process at a time. Every run exits 0, or exits non-zero with one
/// `error:` line and no panic.
#[test]
fn mutated_inputs_map_or_fail_with_one_error_line() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (mut succeeded, mut failed) = (0u32, 0u32);
    for name in ["cm150", "z4ml"] {
        let network = registry::benchmark(name).expect("registered benchmark");
        let blif = blif::write(&network).into_bytes();
        let aag = aiger::write_ascii(&network).into_bytes();
        let aig = aiger::write_binary(&network);
        for seed in 0..10 {
            let mutants = [
                ("truncate.blif", inject::truncate_blif(&blif, seed)),
                ("garble.blif", inject::garble_blif(&blif, seed)),
                ("drop-line.blif", inject::drop_blif_line(&blif, seed)),
                ("swap-lines.blif", inject::swap_blif_lines(&blif, seed)),
                ("truncate.aag", inject::truncate_aiger(&aag, seed)),
                ("garble.aag", inject::garble_aiger(&aag, seed)),
                ("truncate.aig", inject::truncate_aiger(&aig, seed)),
                ("garble.aig", inject::garble_aiger(&aig, seed)),
                ("header.aag", inject::perturb_aiger_header(&aag, seed)),
            ];
            for (kind, bytes) in mutants {
                let path = dir.join(format!("fuzz-{name}-{seed}-{kind}"));
                std::fs::write(&path, bytes.expect("the mutator applies"))
                    .expect("temp file writes");
                let path = path.to_str().expect("utf-8 path");
                for command in ["map", "verify"] {
                    let out = soi_domino(&[command, path]);
                    if out.status.success() {
                        succeeded += 1;
                    } else {
                        assert_clean_failure(&out, &format!("{command} {name} seed {seed} {kind}"));
                        failed += 1;
                    }
                }
            }
        }
    }
    // 2 circuits x 10 seeds x 9 mutants x 2 commands, and the sweep
    // exercises both outcomes.
    assert_eq!(succeeded + failed, 360);
    assert!(
        succeeded > 0 && failed > 0,
        "{succeeded} ok, {failed} failed"
    );
}

#[test]
fn list_names_every_registry_circuit() {
    let out = soi_domino(&["list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for name in soi_domino::circuits::registry::names() {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "`{name}` missing from list"
        );
    }
}

/// `soi-domino list | head -1`: the reader closes the pipe early, after
/// one line or before the first, and the writes that follow fail with a
/// broken pipe. The rest of the output is dropped and the run ends with
/// the exit code the command decides, with nothing on stderr — not a
/// `println!` panic. For `verify` that code is its verdict, which a closed
/// pipe must not turn into success; `c880` verifies, so it is success here.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [
        vec!["list"],
        vec!["map", "c880", "--emit", "netlist"],
        vec!["verify", "c880"],
    ] {
        for read_first_line in [true, false] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_soi-domino"))
                .args(&args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("the binary starts");
            let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
            if read_first_line {
                let mut first = String::new();
                reader.read_line(&mut first).expect("one line arrives");
                assert!(!first.is_empty(), "{args:?}: no output");
            }
            drop(reader);
            let mut err = String::new();
            child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut err)
                .expect("stderr reads");
            let status = child.wait().expect("the binary exits");
            assert!(status.success(), "{args:?}: {status} {err}");
            assert!(err.is_empty(), "{args:?}: {err}");
        }
    }
}

//! The `soi-domino` binary end to end: `verify` proves mappings through
//! their certificates, AIGER files load by extension and every other file
//! as BLIF, bad inputs exit non-zero with one `error:` line instead of
//! a panic, and a reader that closes the output early ends the run
//! quietly.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

/// A failed run: non-zero exit, an `error:` line, no panic.
fn assert_clean_failure(out: &Output, what: &str) {
    let err = stderr(out);
    assert!(!out.status.success(), "{what}: exited 0");
    assert!(
        err.starts_with("error: "),
        "{what}: no error line in {err:?}"
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
    ] {
        assert_clean_failure(&soi_domino(&args), &format!("{args:?}"));
    }
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

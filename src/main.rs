//! The `soi-domino` command-line tool: map BLIF netlists or built-in
//! benchmarks to SOI domino logic, inspect the result, and stress-test it
//! on the floating-body simulator.
//!
//! ```text
//! soi-domino list
//! soi-domino map <circuit> [--algorithm soi|rs|domino] [--objective area|depth]
//!                          [--clock-weight K] [--duplicate] [--emit counts|netlist|dot|timing]
//! soi-domino compare <circuit>
//! soi-domino stress <circuit> [--cycles N] [--strip]
//! soi-domino verify <circuit> [--algorithm soi|rs|domino]
//! ```
//!
//! `<circuit>` is either a registered benchmark name (see `list`) or a path
//! to a `.blif`, `.aag` or `.aig` file. `verify` exits non-zero unless the
//! mapping is proved equivalent to its source and PBE-safe.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use soi_domino::cec::{check_mapped, verify_safe_sat, CecOptions, CecPath, CecVerdict};
use soi_domino::circuits::{corpus, registry};
use soi_domino::domino::timing::{analyze, TechParams};
use soi_domino::domino::{export, GateId};
use soi_domino::mapper::{Algorithm, MapConfig, Mapper, Objective};
use soi_domino::netlist::{blif, dot, Network};
use soi_domino::pbe::bodysim::{BodySimConfig, BodySimulator};
use soi_domino::pbe::excite::InputConstraints;
use soi_domino::pbe::hazard;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Out {
        w: io::stdout().lock(),
        closed: false,
    };
    match run(&args, &mut out).and_then(|code| Ok(out.flush().map(|()| code)?)) {
        Ok(code) => code,
        Err(e) if e.is::<OutputError>() => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Standard output, locked once: every command writes through this, so a
/// failed write is an [`OutputError`] instead of a `println!` panic.
///
/// A reader that went away (`soi-domino list | head -1`) is not an error:
/// there is nobody left to tell, and nothing went wrong on this side. The
/// rest of the output is dropped and the command ends with the exit code
/// it decides itself, so `verify` still exits with its verdict.
struct Out<W: Write> {
    w: W,
    /// A write failed with a broken pipe; later writes are dropped.
    closed: bool,
}

impl<W: Write> Out<W> {
    /// Lets `write!`/`writeln!` target an `Out`.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), OutputError> {
        if self.closed {
            return Ok(());
        }
        let written = self.w.write_fmt(args);
        self.settle(written)
    }

    fn flush(&mut self) -> Result<(), OutputError> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.w.flush();
        self.settle(flushed)
    }

    /// A broken pipe closes the output; any other error is returned.
    fn settle(&mut self, result: io::Result<()>) -> Result<(), OutputError> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            r => r.map_err(OutputError),
        }
    }
}

/// A write to standard output failed.
#[derive(Debug)]
struct OutputError(io::Error);

impl fmt::Display for OutputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "writing output: {}", self.0)
    }
}

impl Error for OutputError {}

type Stdout<'a> = Out<io::StdoutLock<'a>>;

const USAGE: &str = "usage:
  soi-domino list
  soi-domino map <circuit> [--algorithm soi|rs|domino] [--objective area|depth]
                           [--clock-weight K] [--duplicate]
                           [--emit counts|netlist|dot|timing]
  soi-domino compare <circuit>
  soi-domino stress <circuit> [--cycles N] [--strip]
  soi-domino verify <circuit> [--algorithm soi|rs|domino]

<circuit> is a registered benchmark name (see `list`) or a file path: .aag
and .aig files are read as AIGER, any other file as BLIF.";

/// Runs one subcommand; `Ok` carries the exit code of a command that ran
/// to completion (only `verify` can fail that way).
fn run(args: &[String], out: &mut Stdout<'_>) -> Result<ExitCode, Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in registry::names() {
                let n = registry::benchmark(name)
                    .ok_or_else(|| format!("registered benchmark `{name}` failed to build"))?;
                writeln!(out, "{name:8} {}", n.stats())?;
            }
        }
        Some("map") => cmd_map(&args[1..], out)?,
        Some("compare") => cmd_compare(&args[1..], out)?,
        Some("stress") => cmd_stress(&args[1..], out)?,
        Some("verify") => return cmd_verify(&args[1..], out),
        _ => return Err("missing or unknown subcommand".into()),
    }
    Ok(ExitCode::SUCCESS)
}

fn load_circuit(spec: &str) -> Result<Network, Box<dyn Error>> {
    if let Some(network) = registry::benchmark(spec) {
        return Ok(network);
    }
    let path = Path::new(spec);
    if !path.exists() {
        return Err(
            format!("`{spec}` is neither a registered benchmark nor a readable file").into(),
        );
    }
    // AIGER goes by its extension; any other file is read as BLIF.
    let aiger = path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("aag") || e.eq_ignore_ascii_case("aig"));
    if aiger {
        Ok(corpus::load_path(path)?)
    } else {
        Ok(blif::parse(&std::fs::read_to_string(path)?)?)
    }
}

struct Flags {
    algorithm: Algorithm,
    config: MapConfig,
    emit: String,
    cycles: usize,
    strip: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, Box<dyn Error>> {
    let mut flags = Flags {
        algorithm: Algorithm::SoiDominoMap,
        config: MapConfig::default(),
        emit: "counts".to_string(),
        cycles: 64,
        strip: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, Box<dyn Error>> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value").into())
        };
        match arg.as_str() {
            "--algorithm" => {
                flags.algorithm = match value("--algorithm")?.as_str() {
                    "soi" => Algorithm::SoiDominoMap,
                    "rs" => Algorithm::RsMap,
                    "domino" => Algorithm::DominoMap,
                    other => return Err(format!("unknown algorithm `{other}`").into()),
                }
            }
            "--objective" => {
                flags.config.objective = match value("--objective")?.as_str() {
                    "area" => Objective::Area,
                    "depth" => Objective::Depth,
                    other => return Err(format!("unknown objective `{other}`").into()),
                }
            }
            "--clock-weight" => flags.config.clock_weight = value("--clock-weight")?.parse()?,
            "--duplicate" => flags.config.allow_duplication = true,
            "--emit" => flags.emit = value("--emit")?,
            "--cycles" => flags.cycles = value("--cycles")?.parse()?,
            "--strip" => flags.strip = true,
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    Ok(flags)
}

fn mapper_for(flags: &Flags) -> Mapper {
    match flags.algorithm {
        Algorithm::SoiDominoMap => Mapper::soi(flags.config),
        Algorithm::RsMap => Mapper::rearrange_stacks(flags.config),
        Algorithm::DominoMap => Mapper::baseline(flags.config),
    }
}

fn cmd_map(args: &[String], out: &mut Stdout<'_>) -> Result<(), Box<dyn Error>> {
    let spec = args.first().ok_or("map needs a circuit")?;
    let flags = parse_flags(&args[1..])?;
    let network = load_circuit(spec)?;
    let result = mapper_for(&flags).run(&network)?;
    match flags.emit.as_str() {
        "counts" => {
            writeln!(out, "{result}")?;
            writeln!(out, "pbe-safe: {}", hazard::is_safe(&result.circuit))?;
        }
        "netlist" => write!(out, "{}", export::netlist(&result.circuit))?,
        "dot" => write!(out, "{}", dot::render(&network))?,
        "timing" => {
            let report = analyze(&result.circuit, &TechParams::soi());
            writeln!(out, "{result}")?;
            writeln!(out, "critical path (SOI params): {:.1}", report.critical)?;
            writeln!(
                out,
                "critical path (bulk params): {:.1}",
                analyze(&result.circuit, &TechParams::bulk()).critical
            )?;
        }
        other => return Err(format!("unknown emit mode `{other}`").into()),
    }
    Ok(())
}

fn cmd_compare(args: &[String], out: &mut Stdout<'_>) -> Result<(), Box<dyn Error>> {
    let spec = args.first().ok_or("compare needs a circuit")?;
    let network = load_circuit(spec)?;
    writeln!(out, "{}: {}", network.name(), network.stats())?;
    for mapper in [
        Mapper::baseline(MapConfig::default()),
        Mapper::rearrange_stacks(MapConfig::default()),
        Mapper::soi(MapConfig::default()),
    ] {
        let result = mapper.run(&network)?;
        let timing = analyze(&result.circuit, &TechParams::soi());
        writeln!(out, "  {result}  delay={:.1}", timing.critical)?;
    }
    Ok(())
}

fn cmd_stress(args: &[String], out: &mut Stdout<'_>) -> Result<(), Box<dyn Error>> {
    let spec = args.first().ok_or("stress needs a circuit")?;
    let flags = parse_flags(&args[1..])?;
    let network = load_circuit(spec)?;
    let mut result = mapper_for(&flags).run(&network)?;
    if flags.strip {
        for idx in 0..result.circuit.gate_count() {
            result.circuit.set_discharge(GateId::from_index(idx), &[]);
        }
        writeln!(out, "(protection stripped)")?;
    }
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let mut sim = BodySimulator::new(&result.circuit, BodySimConfig::default())?;
    let inputs = result.circuit.input_names().len();
    let mut events = 0usize;
    let mut bad_cycles = 0usize;
    let mut held: Vec<bool> = vec![false; inputs];
    for cycle in 0..flags.cycles {
        if cycle % 5 == 0 {
            held = (0..inputs).map(|_| rng.gen_bool(0.4)).collect();
        }
        let report = sim.step(&held)?;
        events += report.pbe_events.len();
        bad_cycles += usize::from(report.misevaluated());
    }
    writeln!(
        out,
        "{} cycles: {} bipolar events, {} mis-evaluated cycles, hysteresis exposure {}",
        flags.cycles,
        events,
        bad_cycles,
        sim.hysteresis_exposure()
    )?;
    Ok(())
}

/// Maps the circuit, then proves the mapping equivalent to its source
/// (`check_mapped`) and PBE-safe (`verify_safe_sat`), printing both
/// verdicts and times; the exit code is non-zero unless both hold.
fn cmd_verify(args: &[String], out: &mut Stdout<'_>) -> Result<ExitCode, Box<dyn Error>> {
    let spec = args.first().ok_or("verify needs a circuit")?;
    let flags = parse_flags(&args[1..])?;
    let network = load_circuit(spec)?;
    let result = mapper_for(&flags).run(&network)?;
    let opts = CecOptions::default();

    let start = Instant::now();
    let report = check_mapped(&network, &result.circuit, &opts)?;
    let cec_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let safety = verify_safe_sat(
        &result.circuit,
        &InputConstraints::none(),
        opts.output_conflict_budget,
    );
    let pbe_ms = start.elapsed().as_secs_f64() * 1e3;

    writeln!(out, "{result}")?;
    let verdict = match &report.verdict {
        CecVerdict::Equivalent => "equivalent".to_string(),
        CecVerdict::NotEquivalent(cex) => format!("NOT equivalent (output {})", cex.output),
        CecVerdict::Undecided { unproven } => format!("undecided ({unproven} unproven outputs)"),
    };
    let gates = result.circuit.gate_count();
    let (path, certified, fallbacks) = match report.path {
        CecPath::Certificate => ("certificate", gates, 0),
        CecPath::Sweep => ("sat sweep", 0, 1),
    };
    writeln!(out, "equivalence: {verdict} via {path} in {cec_ms:.1} ms")?;
    writeln!(
        out,
        "certified gates: {certified} of {gates}, fallbacks: {fallbacks}, sat calls: {}",
        report.sat_calls
    )?;
    writeln!(
        out,
        "pbe-safe: {} ({} junctions checked, {} excitable, {} unknown) in {pbe_ms:.1} ms",
        safety.safe, safety.junctions_checked, safety.excitable, safety.unknown
    )?;
    Ok(
        if report.is_equivalent() && safety.safe && safety.unknown == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write fails with one error kind.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A broken pipe closes the output without an error, so a command
    /// runs on to the exit code it decides; any other failure is one.
    #[test]
    fn a_broken_pipe_drops_the_rest_and_other_errors_surface() {
        let mut out = Out {
            w: Failing(io::ErrorKind::BrokenPipe),
            closed: false,
        };
        assert!(writeln!(out, "first").is_ok());
        assert!(out.closed);
        assert!(writeln!(out, "second").is_ok());
        assert!(out.flush().is_ok());

        let mut out = Out {
            w: Failing(io::ErrorKind::PermissionDenied),
            closed: false,
        };
        assert!(writeln!(out, "first").is_err());
        assert!(!out.closed);
    }
}

//! Traced driver of the paper-pipeline benchmark.
//!
//! Each subcommand repeats the library calls of one `crn` command, in the
//! same order and with the same defaults, and records a span around every
//! call into a layer's public function.  Spans stay in memory and are
//! written out, with the counts the calls return, as one JSON object on
//! stdout when the step ends.  `perfbench/run.py` reads that object.
//!
//! ```text
//! perfbench-driver synthesize <in.crn> <out.crn>           # crn synthesize IN -o OUT
//! perfbench-driver load <doc.crn>                           # crn check DOC
//! perfbench-driver verify <doc.crn> <bound> <max-configs>   # crn verify DOC --bound B --max-configs M
//! perfbench-driver sim <doc.crn> <a,b,...> <trials> <workers> <seed>
//!                                                           # crn sim DOC --input .. --trials .. --workers .. --seed ..
//! perfbench-driver analysis <doc.crn>                       # the analyses lint_full runs, one span each
//! ```
//!
//! Work the `crn` command does outside these calls (process start, reading
//! and writing files, rendering diagnostics, resolving and validating the
//! `computes` target) is repeated where it affects results, but left outside
//! every span: `run.py` reports it as `cli.unattributed_s`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use crn_core::{characterize, synthesize, Characterization, ObliviousSpec};
use crn_lang::ast::{Document, Item};
use crn_lang::{crn_to_item, lower_document, spec_to_item, LoweredDocument};
use crn_model::analysis::{
    conservation_basis, lint_full, minimal_siphons, minimal_traps, nonnegative_laws_capped,
    nonnegative_t_semiflows, t_invariant_basis, SpeciesBounds, Stoichiometry, FARKAS_ROW_CAP,
    SIPHON_NODE_CAP,
};
use crn_model::{check_on_box_stats, CompiledCrn, CrnError};
use crn_numeric::NVec;
use crn_sim::Ensemble;

/// `crn synthesize`'s default `--bound` for characterizing a `fn` item.
const SYNTH_BOUND: u64 = 8;
/// `crn sim`'s default `--max-steps`.
const SIM_MAX_STEPS: u64 = 10_000_000;

/// One finished span: nanoseconds since the trace began.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// The in-memory span log of one step, plus the counts its calls returned.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64)>,
    labels: Vec<(&'static str, String)>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Runs `f` under a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_nanos();
        let value = black_box(f());
        let end_ns = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns,
        });
        value
    }

    fn count(&mut self, name: &'static str, value: u64) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += value,
            None => self.counts.push((name, value)),
        }
    }

    fn label(&mut self, name: &'static str, value: impl Into<String>) {
        self.labels.push((name, value.into()));
    }

    /// The step's record as one JSON object.
    fn to_json(&self, step: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(n, v)| format!("\"{n}\":\"{}\"", escape(v)))
            .collect();
        format!(
            "{{\"step\":\"{step}\",\"spans\":[{}],\"counts\":{{{}}},\"labels\":{{{}}}}}",
            spans.join(","),
            counts.join(","),
            labels.join(",")
        )
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Reads, parses and lowers a document, as `Workspace::load` does.
fn load(trace: &mut Trace, path: &str) -> Result<LoweredDocument, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = trace
        .span("lang.parse", || crn_lang::parse(&source))
        .map_err(|d| d.render(&source, path))?;
    trace
        .span("lang.lower", || lower_document(&doc))
        .map_err(|d| d.render(&source, path))
}

/// Lints every `crn` item, as the `crn check`/`verify`/`sim` commands do.
fn lint_all(trace: &mut Trace, lowered: &LoweredDocument) {
    for (_, item) in &lowered.crns {
        trace.span("analysis.lint", || lint_full(&item.crn));
    }
}

/// The `computes` target of a crn item, resolved as `Workspace::target`
/// does: `fn` items first, then `spec` items.
enum Target<'a> {
    Fn(&'a crn_semilinear::SemilinearFunction),
    Spec(&'a ObliviousSpec),
}

impl Target<'_> {
    fn resolve<'a>(lowered: &'a LoweredDocument, name: &str) -> Result<Target<'a>, String> {
        if let Some((_, f)) = lowered.fns.iter().find(|(n, _)| n == name) {
            return Ok(Target::Fn(f));
        }
        lowered
            .specs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| Target::Spec(s))
            .ok_or_else(|| format!("no fn or spec item named `{name}`"))
    }

    fn try_eval(&self, x: &NVec) -> Result<u64, String> {
        match self {
            Target::Fn(f) => f.eval(x).map_err(|e| e.to_string()),
            Target::Spec(s) => s.eval(x).map_err(|e| e.to_string()),
        }
    }
}

fn run_synthesize(trace: &mut Trace, input: &str, output: &str) -> Result<(), String> {
    let lowered = load(trace, input)?;
    let (name, spec) = match (lowered.specs.as_slice(), lowered.fns.as_slice()) {
        ([(n, spec)], _) => (n.clone(), spec.clone()),
        ([], [(n, f)]) => match trace.span("core.characterize", || characterize(f, SYNTH_BOUND)) {
            Ok(Characterization::ObliviouslyComputable { spec }) => (n.clone(), spec),
            Ok(_) => return Err(format!("fn `{n}` is not obliviously computable")),
            Err(e) => return Err(format!("characterization of fn `{n}` failed: {e}")),
        },
        _ => return Err("the document needs exactly one spec or fn item".to_owned()),
    };
    let crn = trace
        .span("core.synthesize", || synthesize(&spec))
        .map_err(|e| format!("the Lemma 6.2 construction failed: {e}"))?;
    let spec_name = format!("{name}_spec");
    let crn_name = format!("{name}_crn");
    let doc = Document {
        items: vec![
            Item::Spec(spec_to_item(&spec_name, &spec)),
            Item::Crn(crn_to_item(&crn_name, &crn, Some(&spec_name), None)),
        ],
    };
    let text = trace.span("lang.print", || crn_lang::print(&doc));
    std::fs::write(output, &text).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    trace.count("core.species", crn.species_count() as u64);
    trace.count("core.reactions", crn.reaction_count() as u64);
    Ok(())
}

fn run_load(trace: &mut Trace, path: &str) -> Result<(), String> {
    let lowered = load(trace, path)?;
    lint_all(trace, &lowered);
    for (_, item) in &lowered.crns {
        trace.count("core.species", item.crn.species_count() as u64);
        trace.count("core.reactions", item.crn.reaction_count() as u64);
    }
    Ok(())
}

fn run_verify(trace: &mut Trace, path: &str, bound: u64, max_configs: usize) -> Result<(), String> {
    let lowered = load(trace, path)?;
    lint_all(trace, &lowered);
    for (name, item) in &lowered.crns {
        let Some(computes) = &item.computes else {
            continue;
        };
        let target = Target::resolve(&lowered, computes)?;
        for x in NVec::box_iter(item.crn.dim(), bound) {
            target
                .try_eval(&x)
                .map_err(|e| format!("`{computes}` cannot be evaluated at {x}: {e}"))?;
        }
        let eval = |x: &NVec| target.try_eval(x).unwrap_or(0);
        let (outcome, stats) = trace.span("box.sweep", || {
            check_on_box_stats(&item.crn, eval, bound, max_configs)
        });
        // The classes of `run.py`'s verdict oracle.
        let (verdict, detail) = match outcome {
            Ok(None) => ("pass", String::new()),
            Ok(Some(v)) => (
                "witness",
                format!("input {} expects {}", v.input, v.expected_output),
            ),
            Err(e @ CrnError::SearchLimitExceeded { .. }) => ("inconclusive", e.to_string()),
            Err(e) => ("error", e.to_string()),
        };
        trace.label("verdict", verdict);
        trace.label("detail", format!("{name}: {detail}"));
        trace.count("box.points", stats.points);
        trace.count("box.evaluated", stats.evaluated);
        trace.count("box.symmetry_skipped", stats.symmetry_skipped);
        trace.count("box.static_decided", stats.static_pass + stats.static_fail);
        trace.count("box.decided", stats.decided);
        trace.count("box.cache_hits", stats.cache_hits);
        trace.count("box.configs_explored", stats.configs_explored);
        trace.count("box.gave_up", u64::from(verdict == "inconclusive"));
    }
    Ok(())
}

fn run_sim(
    trace: &mut Trace,
    path: &str,
    input: &str,
    trials: u32,
    workers: usize,
    seed: u64,
) -> Result<(), String> {
    let counts: Vec<u64> = input
        .split(',')
        .map(|part| part.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad input vector `{input}`"))?;
    let x = NVec::from(counts);
    let lowered = load(trace, path)?;
    lint_all(trace, &lowered);
    let [(name, item)] = lowered.crns.as_slice() else {
        return Err("the document needs exactly one crn item".to_owned());
    };
    if let Some(computes) = &item.computes {
        Target::resolve(&lowered, computes)?.try_eval(&x)?;
    }
    let ensemble = Ensemble::new(&item.crn)
        .with_max_steps(SIM_MAX_STEPS)
        .with_workers(workers);
    let summary = trace
        .span("sim.ensemble", || ensemble.run(&x, trials, seed))
        .map_err(|e| format!("simulation of crn `{name}` failed: {e}"))?;
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )]
    let steps = (summary.steps.mean * summary.steps.count as f64).round() as u64;
    trace.count("sim.steps", steps);
    // The convergence test of `crn sim`.
    #[allow(clippy::float_cmp)]
    let silent = summary.silent_fraction == 1.0;
    trace.count("sim.silent", u64::from(silent));
    let outputs: Vec<String> = summary.outputs.iter().map(u64::to_string).collect();
    trace.label("outputs", outputs.join(","));
    Ok(())
}

fn run_analysis(trace: &mut Trace, path: &str) -> Result<(), String> {
    let lowered = load(trace, path)?;
    for (_, item) in &lowered.crns {
        let compiled = CompiledCrn::compile(item.crn.crn());
        let stoich = Stoichiometry::of(&compiled);
        let mut truncated = 0;
        let bounds = trace.span("analysis.bounds", || SpeciesBounds::of(&compiled));
        truncated += u64::from(bounds.truncated());
        trace.span("analysis.laws", || conservation_basis(&stoich));
        let semiflows = trace.span("analysis.semiflows", || {
            nonnegative_laws_capped(&stoich, FARKAS_ROW_CAP)
        });
        truncated += u64::from(semiflows.truncated);
        let (siphons, traps) = trace.span("analysis.siphons", || {
            (
                minimal_siphons(&compiled, SIPHON_NODE_CAP),
                minimal_traps(&compiled, SIPHON_NODE_CAP),
            )
        });
        truncated += u64::from(siphons.truncated) + u64::from(traps.truncated);
        let (_, t_semiflows) = trace.span("analysis.tbasis", || {
            (
                t_invariant_basis(&stoich),
                nonnegative_t_semiflows(&stoich, FARKAS_ROW_CAP),
            )
        });
        truncated += u64::from(t_semiflows.truncated);
        trace.count("analysis.truncated", truncated);
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what} needs a number, got `{text}`"))
}

fn dispatch(trace: &mut Trace, args: &[String]) -> Result<&'static str, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["synthesize", input, output] => {
            run_synthesize(trace, input, output).map(|()| "synthesize")
        }
        ["load", path] => run_load(trace, path).map(|()| "load"),
        ["verify", path, bound, max_configs] => run_verify(
            trace,
            path,
            parse_num(bound, "bound")?,
            parse_num(max_configs, "max-configs")?,
        )
        .map(|()| "verify"),
        ["sim", path, input, trials, workers, seed] => run_sim(
            trace,
            path,
            input,
            parse_num(trials, "trials")?,
            parse_num(workers, "workers")?,
            parse_num(seed, "seed")?,
        )
        .map(|()| "sim"),
        ["analysis", path] => run_analysis(trace, path).map(|()| "analysis"),
        _ => Err("usage: perfbench-driver synthesize|load|verify|sim|analysis ...".to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace = Trace::new();
    match dispatch(&mut trace, &args) {
        Ok(step) => {
            println!("{}", trace.to_json(step));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-driver: {message}");
            ExitCode::from(2)
        }
    }
}

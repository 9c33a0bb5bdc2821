#!/usr/bin/env python3
"""Paper-pipeline benchmark: synthesize -> verify -> simulate.

Runs one workload through the `crn` release binary the way a user runs the
paper's pipeline, checks every verdict and simulated output against the
known answer, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload fig7-analysis --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout.  It builds `crn` and the traced driver
(`perfbench/driver`) into $CARGO_TARGET_DIR (default `.bench_build`), and
keeps its generated documents in `.perfbench-work/`, which it removes on
exit.  See perfbench/README.md for the metrics and workloads.

Seed 20261017 is held out: use it only to confirm a claimed gain, never
while developing the change.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# One client, one pipeline at a time: every process the benchmark starts is
# pinned to at most this many CPUs, so `crn verify` (which sizes its worker
# pool from the available parallelism) and `crn sim --workers` use the same
# thread count on every machine.
CPUS = 2
# `crn synthesize` (or `crn check`) runs this many times before the first
# pipeline and after each one; `setup_s` is the median of all of them, and
# every synthesized document must be byte-identical.
SETUP_REPS = 5
# A child running longer than this is killed and the run ends without a
# result, so a hang cannot keep the benchmark past its time limit.
PROCESS_TIMEOUT_S = 60.0


def fig7(x1, x2):
    # Figure 7 of the paper: x1 + 1 below the diagonal, x2 + 1 above, x1 on it.
    if x1 < x2:
        return x1 + 1
    if x2 < x1:
        return x2 + 1
    return x1


def gated_min(x1, x2):
    # corpus/compound_spec.crn: 0 if either input is 0, else min(x1, x2) + 1.
    return 0 if 0 in (x1, x2) else min(x1, x2) + 1


@dataclass(frozen=True)
class Workload:
    source: str  # corpus document
    synthesized: bool  # True: `crn synthesize` builds the CRN under test
    bound: int  # `crn verify --bound`
    max_configs: int  # `crn verify --max-configs`
    verify_ok: tuple  # verdict classes that count as correct
    sim_input: tuple  # base `crn sim --input`; each run adds up to 1% from its seed
    trials: int  # `crn sim --trials`
    answer: object  # the known function the CRN computes


WORKLOADS = {
    # Analysis-bound: lint and box analysis dominate both verify and sim.
    "fig7-analysis": Workload(
        "corpus/figure7.crn", True, 2, 2_000_000, ("pass",), (3000, 2000), 32, fig7
    ),
    # Exploration-bound: the DAG exploration and the sim kernel do the work.
    "min-explore": Workload(
        "corpus/min_spec.crn", True, 5, 2_000_000, ("pass",), (200_000, 300_000), 16, min
    ),
    # The only workload where symmetry skipping fires.
    "max-symmetry": Workload(
        "corpus/figure1_max.crn", False, 44, 2_000_000, ("pass",), (200_000, 300_000), 16, max
    ),
    # Budget exhaustion at the widest state: a witness here is an error.
    "compound-frontier": Workload(
        "corpus/compound_spec.crn",
        True,
        1,
        250_000,
        ("inconclusive", "pass"),
        (30_000, 45_000),
        16,
        gated_min,
    ),
}

END_TO_END = [("setup_s", "s"), ("verify_s", "s"), ("sim_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer time metrics: driver span name -> metric name.
SPAN_METRICS = {
    "lang.parse": "lang.parse_s",
    "lang.lower": "lang.lower_s",
    "lang.print": "lang.print_s",
    "core.characterize": "core.characterize_s",
    "core.synthesize": "core.synthesize_s",
    "analysis.lint": "analysis.lint_s",
    "analysis.bounds": "analysis.bounds_s",
    "analysis.laws": "analysis.laws_s",
    "analysis.semiflows": "analysis.semiflows_s",
    "analysis.siphons": "analysis.siphons_s",
    "analysis.tbasis": "analysis.tbasis_s",
    "box.sweep": "box.sweep_s",
    "sim.ensemble": "sim.ensemble_s",
}
# Counts the driver reads from the calls' return values; they must repeat
# exactly from one traced pipeline to the next.
COUNT_METRICS = [
    "core.species",
    "core.reactions",
    "analysis.truncated",
    "box.points",
    "box.evaluated",
    "box.symmetry_skipped",
    "box.static_decided",
    "box.decided",
    "box.cache_hits",
    "box.configs_explored",
    "box.gave_up",
    "sim.steps",
]
RATE_METRICS = {
    "box.configs_per_s": ("box.configs_explored", "box.sweep_s"),
    "sim.steps_per_s": ("sim.steps", "sim.ensemble_s"),
}
PROCESS_METRICS = ["cli.unattributed_s", "trace.overhead_s"]


def units(name):
    return "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Fatal(Exception):
    """A condition under which the benchmark prints no result."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    def __init__(self, work):
        self.work = work
        self.serial = 0

    def run(self, argv):
        """Runs argv to completion; returns its exit code, wall-clock and peak RSS."""
        self.serial += 1
        out_path = os.path.join(self.work, f"p{self.serial}.out")
        err_path = os.path.join(self.work, f"p{self.serial}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= PROCESS_TIMEOUT_S:
            raise Fatal(f"`{' '.join(argv)}` ran longer than {PROCESS_TIMEOUT_S:.0f} s")
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        os.remove(out_path)
        os.remove(err_path)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


# ---------------------------------------------------------------- the oracle


def classify_verify(proc):
    """pass, witness or inconclusive from `crn verify`'s stdout, else unknown.

    Inconclusive is recognized by the "exhaustive search gave up" cause, not
    by the exit code, so a dedicated exit code for it keeps the class.
    """
    lines = proc.stdout.splitlines()
    if proc.code == 0 and len(lines) == 1 and lines[0].endswith(": ok (exhaustive)"):
        return "pass"
    if len(lines) == 2 and lines[1].startswith("  exhaustive search gave up:"):
        return "inconclusive"
    if len(lines) == 2 and lines[0].endswith(": FAIL"):
        if re.match(r"  input \(.*\) expects \d+: ", lines[1]):
            return "witness"
    return "unknown"


def stats_configs(proc):
    """configs_explored from the `--stats` line `crn verify` prints on stderr."""
    for line in proc.stderr.splitlines():
        if line.startswith("{") and '"stats"' in line:
            return json.loads(line)["stats"]["configs_explored"]
    return None


def sim_outputs(proc):
    """The set of final outputs `crn sim` reports, or None if it did not converge."""
    m = re.search(r": outputs \{([0-9, ]*)\}, silent (\d+)%", proc.stdout)
    if proc.code != 0 or not m or m.group(2) != "100":
        return None
    return [int(v) for v in m.group(1).split(",") if v.strip()]


SYNTH_LINE = re.compile(
    r"synthesized `\w+` -> .*: (\d+) species, (\d+) reactions, output-oblivious: (\w+)"
)
CHECK_LINE = re.compile(r"^  crn \w+: (\d+) species, (\d+) reactions", re.M)


# ---------------------------------------------------------------- the benchmark


class Bench:
    def __init__(self, name, seed, seconds, root, runner, crn, driver):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.runner = runner
        self.crn = crn
        self.driver = driver
        self.attempted = 0
        self.failed = 0
        self.problems = []
        rng = splitmix64(seed)
        self.sim_input = []
        for base in self.w.sim_input:
            rng = splitmix64(rng)
            self.sim_input.append(base + rng % max(1, base // 100))
        self.expected = self.w.answer(*self.sim_input)
        self.source = os.path.join(root, self.w.source)
        self.setup_walls, self.rss = [], []
        self.doc = self.doc_text = self.sizes = None
        self.identical = True

    def sim_seed(self, iteration):
        return splitmix64(self.seed * 1_000_003 + iteration) % 1_000_000_007

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    # ---- the three user-facing steps

    def cli_setup(self):
        """One `crn synthesize` (or `crn check` of a hand-written document).

        The first run's document becomes the CRN under test; every later
        synthesis must reproduce it byte for byte.
        """
        if self.w.synthesized:
            out = os.path.join(self.runner.work, f"setup-{len(self.setup_walls)}.crn")
            proc = self.runner.run([self.crn, "synthesize", self.source, "-o", out])
            m = SYNTH_LINE.search(proc.stderr)
            ok = proc.code == 0 and m is not None and m.group(3) == "true"
            self.record(ok, f"crn synthesize exited {proc.code}: {proc.stderr.strip()[:200]}")
        else:
            out = self.source
            proc = self.runner.run([self.crn, "check", self.source])
            m = CHECK_LINE.search(proc.stdout)
            self.record(proc.code == 0 and m is not None, f"crn check exited {proc.code}")
        self.setup_walls.append(proc.wall_s)
        self.rss.append(proc.rss_mb)
        text = b""
        if os.path.exists(out):
            with open(out, "rb") as f:
                text = f.read()
        if self.doc is None:
            self.doc, self.doc_text = out, text
            self.sizes = tuple(int(v) for v in m.groups()[:2]) if m else (None, None)
        elif text != self.doc_text and self.identical:
            self.identical = False
            self.problems.append("syntheses of one spec are not byte-identical")
        return proc

    def setup_batch(self):
        for _ in range(SETUP_REPS):
            self.cli_setup()

    def provenance(self):
        return {
            "workload": self.name,
            "source": self.w.source,
            "generated": self.w.synthesized,
            "species": self.sizes[0],
            "reactions": self.sizes[1],
            "sha256": hashlib.sha256(self.doc_text).hexdigest(),
            "byte_identical_runs": len(self.setup_walls) if self.identical else 0,
            "sim_input": self.sim_input,
            "sim_expected": self.expected,
        }

    def cli_verify(self, doc):
        proc = self.runner.run(
            [
                self.crn, "verify", doc,
                "--bound", str(self.w.bound),
                "--max-configs", str(self.w.max_configs),
                "--stats",
            ]
        )
        verdict = classify_verify(proc)
        self.record(verdict in self.w.verify_ok, f"crn verify gave {verdict}: {proc.stdout.strip()[:300]}")
        return proc, verdict

    def cli_sim(self, doc, iteration):
        proc = self.runner.run(
            [
                self.crn, "sim", doc,
                "--input", ",".join(map(str, self.sim_input)),
                "--trials", str(self.w.trials),
                "--workers", str(CPUS),
                "--seed", str(self.sim_seed(iteration)),
            ]
        )
        outputs = sim_outputs(proc)
        self.record(
            outputs == [self.expected],
            f"crn sim on {self.sim_input} gave {outputs}, expected {self.expected}",
        )
        return proc

    # ---- untraced run: the end-to-end metrics

    def untraced(self):
        """Set-up batches interleaved with verify/sim pipelines.

        A set-up batch runs between pipelines, so `setup_s` samples the whole
        run rather than one moment of it.  Pipelines start until the run has
        measured for its seconds; the last one runs to completion.
        """
        verify_walls, sim_walls = [], []
        start = time.perf_counter()
        self.setup_batch()
        while not verify_walls or time.perf_counter() - start < self.seconds:
            verify, _ = self.cli_verify(self.doc)
            sim = self.cli_sim(self.doc, len(verify_walls))
            verify_walls.append(verify.wall_s)
            sim_walls.append(sim.wall_s)
            self.rss.extend([verify.rss_mb, sim.rss_mb])
            self.setup_batch()
        print("samples verify_s " + " ".join(f"{v:.4f}" for v in verify_walls))
        print("samples sim_s " + " ".join(f"{v:.4f}" for v in sim_walls))
        return {
            "setup_s": statistics.median(self.setup_walls),
            "verify_s": statistics.median(verify_walls),
            "sim_s": statistics.median(sim_walls),
            "peak_rss_mb": max(self.rss),
        }

    # ---- traced run: the per-layer metrics

    def drive(self, *args):
        proc = self.runner.run([self.driver, *map(str, args)])
        if proc.code != 0:
            raise Fatal(f"driver {args[0]} failed: {proc.stderr.strip()}")
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    def cli_pipeline(self):
        """The user's three commands, untraced; returns their summed wall-clock."""
        setup = self.cli_setup()
        verify, verdict = self.cli_verify(self.doc)
        sim = self.cli_sim(self.doc, 0)
        return setup.wall_s + verify.wall_s + sim.wall_s, verify, verdict

    def driver_pipeline(self):
        """The same calls in the driver, one process per command, traced."""
        if self.w.synthesized:
            out = os.path.join(self.runner.work, "driver.crn")
            steps = [self.drive("synthesize", self.source, out)]
            with open(out, "rb") as f:
                if f.read() != self.doc_text:
                    self.problems.append("driver synthesis differs from crn synthesize")
        else:
            steps = [self.drive("load", self.source)]
        steps.append(self.drive("verify", self.doc, self.w.bound, self.w.max_configs))
        sim_input = ",".join(map(str, self.sim_input))
        steps.append(self.drive("sim", self.doc, sim_input, self.w.trials, CPUS, self.sim_seed(0)))
        return steps

    def traced(self):
        """Alternates untraced and traced pipelines; at least two of each.

        The per-layer numbers are medians over the traced pipelines; every
        count must repeat exactly from one traced pipeline to the next.
        """
        self.setup_batch()
        samples = []
        start = time.perf_counter()
        while len(samples) < 2 or time.perf_counter() - start < self.seconds:
            # Alternate which side runs first, so drift in machine speed does
            # not bias the overhead estimate.
            if len(samples) % 2 == 0:
                untraced, verify, verdict = self.cli_pipeline()
                steps = self.driver_pipeline()
            else:
                steps = self.driver_pipeline()
                untraced, verify, verdict = self.cli_pipeline()
            # Sibling analyses run apart from the pipeline and are not part
            # of its attribution.
            _, analysis = self.drive("analysis", self.doc)
            spans, counts = {}, dict(analysis["counts"])
            attributed = sum(span_s(span) for _, record in steps for span in record["spans"])
            for _, record in steps:
                for span in record["spans"]:
                    spans[span["name"]] = spans.get(span["name"], 0.0) + span_s(span)
                for k, v in record["counts"].items():
                    counts[k] = counts.get(k, 0) + v
            for span in analysis["spans"]:
                if span["name"].startswith("analysis."):
                    spans[span["name"]] = span_s(span)
            self.check_driver(verify, verdict, steps[1][1], steps[2][1], counts)
            samples.append(
                {
                    "spans": spans,
                    "counts": counts,
                    "cli.unattributed_s": untraced - attributed,
                    "trace.overhead_s": sum(p.wall_s for p, _ in steps) - untraced,
                }
            )
        print(f"iterations {len(samples)}")
        for name in COUNT_METRICS:
            values = {s["counts"].get(name, 0) for s in samples}
            if len(values) != 1:
                self.problems.append(f"count {name} differs between traced runs: {sorted(values)}")
        metrics = {}
        for span, name in SPAN_METRICS.items():
            metrics[name] = statistics.median(s["spans"].get(span, 0.0) for s in samples)
        for name in COUNT_METRICS:
            metrics[name] = samples[0]["counts"].get(name, 0)
        for name, (num, den) in RATE_METRICS.items():
            metrics[name] = metrics[num] / metrics[den] if metrics[den] > 0 else 0.0
        for name in PROCESS_METRICS:
            metrics[name] = statistics.median(s[name] for s in samples)
        return metrics

    def check_driver(self, verify, verdict, d_verify, d_sim, counts):
        """The driver must agree with the `crn` commands it mirrors."""
        cli_configs = stats_configs(verify)
        if counts.get("box.configs_explored") != cli_configs:
            self.problems.append(
                f"driver configs_explored {counts.get('box.configs_explored')}"
                f" != crn verify --stats {cli_configs}"
            )
        d_verdict = d_verify["labels"]["verdict"]
        if d_verdict != verdict:
            self.problems.append(
                f"driver verdict {d_verdict} ({d_verify['labels']['detail']}) != crn verify {verdict}"
            )
        if d_sim["labels"]["outputs"] != str(self.expected) or d_sim["counts"]["sim.silent"] != 1:
            self.problems.append(f"driver sim outputs {d_sim['labels']['outputs']}")


def span_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def build(root, target_dir):
    """Builds `crn` and the driver from the checkout's sources."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    manifest = os.path.join("perfbench", "driver", "Cargo.toml")
    for cmd in (cargo + ["-p", "crn-cli", "--bin", "crn"], cargo + ["--manifest-path", manifest]):
        result = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if result.returncode != 0:
            raise Fatal(f"`{' '.join(cmd)}` failed:\n{result.stderr[-4000:]}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "crn"), os.path.join(release, "perfbench-driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "corpus", WORKLOADS[args.workload].source):
        if not os.path.exists(os.path.join(root, needed)):
            raise Fatal(f"`{needed}` is missing: run from the root of a full checkout")
    cpus = sorted(os.sched_getaffinity(0))[:CPUS]
    os.sched_setaffinity(0, cpus)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    crn, driver = build(root, target_dir)

    work_root = os.path.join(root, ".perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, root, Runner(work), crn, driver)
        metrics = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    if args.trace:
        names = list(SPAN_METRICS.values()) + COUNT_METRICS + list(RATE_METRICS) + PROCESS_METRICS
        out = {name: {"value": metrics[name], "unit": units(name)} for name in names}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print("provenance " + json.dumps(bench.provenance(), sort_keys=True))
    for problem in bench.problems:
        print(f"problem {problem}")
    for name, metric in out.items():
        print(f"metric {args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"verdict_errors {args.workload} = {bench.failed}/{bench.attempted}"
        f" ({bench.failed / bench.attempted:.3f})"
    )
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": out,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    # Turn SIGTERM into an exception, so the running child is killed and
    # reaped and the work directory removed before exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        main()
    except Fatal as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

"""designlens benchmark: end-to-end timings and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a designlens checkout; designlens is imported from its
`src/` directory.  Workloads (see BENCHMARK.json for the reasons; it lists
cli-minioo and api-queries, and README.md says why cli-interchange only runs
by hand):

  cli-minioo       `designlens analyze model.minioo --format json --out ...`
  cli-interchange  `designlens analyze a.json b.json c.json d.json --format text
                    --config gates.json --out ...` (exit 1: ADP cycles, gates)
  api-queries      a library client process: `read_interchange`, then class-row
                   queries (dit, noc, cbo of the class; afferent, efferent of
                   its package)

Each op is one child process, run in a closed loop by one client.  Set-up
(generate the seeded model, write the files, round-trip checks, determinism
check, independent oracle) is repeated at least three times and timed; then one
warm-up op is checked against the oracle and later ops must match it byte for
byte.  Ops then run for `--seconds` (see `paced`).

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` it holds per-layer metrics from traced ops run
alternately with untraced ones (tracer.py), each time or count divided by the
answers the traced ops gave (one per analysis, one per query).  Readable
summaries go to the lines above it, and result, span and trace-report files
to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import modelgen
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE_SOURCE = os.path.join(ROOT, "tests", "fixtures", "reference.minioo")
REFERENCE_GOLDEN = os.path.join(ROOT, "tests", "golden", "reference")

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed,
# so a short set-up still spans several of the host's speed swings.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
QUERIES_PER_ROUND = 2
OP_TIMEOUT_S = 150
# The reference job (see `reference_s`) and the time it is scaled to.
REFERENCE_ITEMS = 100_000
REFERENCE_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    shape: modelgen.Shape
    argv: tuple[str, ...] = ()  # the `designlens` command line; empty for api-queries
    gates: tuple = ()
    fail_on: tuple[str, ...] = ()
    thresholds: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("cli-minioo",
             modelgen.Shape(packages=20, classes=3000, methods=10, fields=8, edges=1.5,
                            locality=0.9, back_share=0.1),
             ("analyze", "model.minioo", "--format", "json", "--out", "report.json")),
    Workload("cli-interchange",
             modelgen.Shape(packages=40, classes=3000, methods=3, fields=2, edges=14,
                            locality=0.6, back_share=0.08, empty_packages=1),
             ("analyze", "a.json", "b.json", "c.json", "d.json", "--format", "text",
              "--config", "gates.json", "--out", "report.txt"),
             gates=(("adp_cycles", "<=", 0), ("max_dit", "<=", 64), ("mean_cbo", "<=", 2),
                    ("sdp_violations", "<=", 1000000)),
             fail_on=("adp",), thresholds={"srp_lcom_min": 2}),
    Workload("api-queries",
             modelgen.Shape(packages=20, classes=1000, methods=3, fields=2, edges=14,
                            locality=0.6, back_share=0.08)),
)}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (missing sources, broken generator)."""


@dataclass
class Prepared:
    """One set-up's products: the input files, their digest, and what the oracle expects."""

    files: dict[str, bytes]
    digest: str
    analysis: oracle.Analysis
    queries: list[str]
    counts: dict


def setup(workload: Workload, seed: int, workdir: str) -> Prepared:
    """Generate inputs, write them, check round trips, and compute the oracle."""
    import designlens

    data = modelgen.generate(workload.shape, seed)
    minioo = modelgen.to_minioo(data)
    document = modelgen.to_interchange(data)
    if workload.name == "cli-minioo":
        files = {"model.minioo": minioo}
    elif workload.name == "cli-interchange":
        parts = modelgen.split_interchange(data, 4)
        files = dict(zip(("a.json", "b.json", "c.json", "d.json"), parts))
        files["gates.json"] = json.dumps({"thresholds": workload.thresholds,
                                          "gates": [list(g) for g in workload.gates],
                                          "fail_on": list(workload.fail_on)})
    else:
        files = {"doc.json": document}
    encoded = {name: text.encode("utf-8") for name, text in files.items()}
    digest = hashlib.sha256(b"".join(encoded[name] for name in sorted(encoded))).hexdigest()
    for name, content in encoded.items():
        with open(os.path.join(workdir, name), "wb") as out:
            out.write(content)

    model = designlens.read_interchange(document)
    if designlens.parse_minioo(minioo) != model:
        raise BenchmarkError("parse_minioo(minioo) != read_interchange(json) on generated input")
    if designlens.write_interchange(model) != document:
        raise BenchmarkError("write_interchange(read_interchange(doc)) != doc on generated input")

    check_oracle_on_reference()
    analysis = oracle.Analysis(data, workload.thresholds)
    rng = random.Random(f"queries-{seed}")
    queries = [rng.choice(analysis.classes) for _ in range(400)]
    counts = {"classes": len(analysis.cls), "packages": len(analysis.packages),
              "class_edges": len(analysis.edges),
              "package_edges": len(analysis.package_edges()),
              "input_bytes": sum(len(c) for n, c in encoded.items() if n != "gates.json")}
    return Prepared(encoded, digest, analysis, queries, counts)


def check_oracle_on_reference() -> None:
    """The oracle must reproduce the committed golden reports of the reference fixture."""
    with open(REFERENCE_SOURCE, encoding="utf-8") as source:
        expected = oracle.Analysis(oracle.read_minioo(source.read())).report()
    for suffix, reader in ((".json", oracle.read_json_report), (".txt", oracle.read_text_report)):
        with open(REFERENCE_GOLDEN + suffix, encoding="utf-8") as golden:
            problems = oracle.diff(expected, reader(golden.read()))
        if problems:
            raise BenchmarkError(f"oracle disagrees with reference{suffix}: {problems}")


# -- ops -------------------------------------------------------------------------


@dataclass
class Op:
    """One child process: what it returned and what it cost."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes = b""


class Launcher:
    """The launcher process (launcher.py) that spawns every child; see there for why."""

    def __init__(self):
        self.process = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, command: list[str], workdir: str) -> Op:
        """Run a child to completion; wall time is spawn to exit, RSS from its rusage."""
        paths = [os.path.join(workdir, name) for name in ("stdout", "stderr")]
        request = {"command": command, "cwd": workdir, "env": dict(os.environ, PYTHONPATH=SRC),
                   "stdout": paths[0], "stderr": paths[1], "timeout": OP_TIMEOUT_S}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise BenchmarkError("the launcher process ended unexpectedly")
        reply = json.loads(reply)
        captured = []
        for path in paths:
            with open(path, "rb") as source:
                captured.append(source.read())
        return Op(reply["wall_s"], reply["rss_kb"] / 1024, reply["code"], *captured)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


class Runner:
    """Runs a workload's ops and checks each against the oracle or the first verified op."""

    def __init__(self, workload: Workload, prepared: Prepared, workdir: str, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.prepared = prepared
        self.workdir = workdir
        self.reference: tuple | None = None  # (code, stderr, output) of the verified first op
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, spans_path: str | None = None, op_id: int = 0) -> Op | None:
        """One op; returns it when it was correct, None (and counts a failure) otherwise."""
        traced = ["--spans", spans_path, "--op", str(op_id)] if spans_path else None
        if self.workload.argv:
            return self._cli(traced)
        return self._api(traced)

    def _cli(self, traced: list[str] | None) -> Op | None:
        argv = list(self.workload.argv)
        if traced:
            command = [sys.executable, os.path.join(HERE, "child.py"), *traced, "cli", *argv]
        else:
            command = [sys.executable, "-m", "designlens.cli", *argv]
        op = self.launcher.spawn(command, self.workdir)
        out_path = os.path.join(self.workdir, argv[argv.index("--out") + 1])
        if os.path.exists(out_path):
            with open(out_path, "rb") as report:
                op.output = report.read()
            os.remove(out_path)
        self.attempted += 1
        problem = self._check_cli(op)
        return self._settle(op, problem, 1)

    def _check_cli(self, op: Op) -> str | None:
        if b"Traceback" in op.stderr:
            return "traceback on stderr: " + op.stderr.decode("utf-8", "replace")[-400:]
        if self.reference is not None:
            if (op.code, op.stderr, op.output) != self.reference:
                return "exit code, stderr or report bytes differ from the verified first op"
            return None
        code, stderr = self.prepared.analysis.cli_stderr(list(self.workload.gates),
                                                          list(self.workload.fail_on))
        if op.code != code:
            return f"exit code {op.code}, oracle expects {code}"
        if op.stderr.decode("utf-8", "replace") != stderr:
            return f"stderr differs from the oracle: {op.stderr[:300]!r}"
        reader = oracle.read_json_report if "json" in self.workload.argv else oracle.read_text_report
        try:
            actual = reader(op.output.decode("utf-8"))
        except (ValueError, AttributeError, KeyError, UnicodeDecodeError) as exc:
            return f"report does not parse: {exc!r}"
        problems = oracle.diff(self.prepared.analysis.report(), actual)
        if problems:
            return "report differs from the oracle: " + "; ".join(problems)
        self.reference = (op.code, op.stderr, op.output)
        return None

    def _api(self, traced: list[str] | None) -> Op | None:
        queries = self.prepared.queries
        start = self.rounds * QUERIES_PER_ROUND % len(queries)
        batch = (queries + queries)[start:start + QUERIES_PER_ROUND]
        self.rounds += 1
        with open(os.path.join(self.workdir, "queries.json"), "w", encoding="utf-8") as out:
            json.dump(batch, out)
        command = [sys.executable, os.path.join(HERE, "child.py"), *(traced or []),
                   "api", "doc.json", "queries.json"]
        op = self.launcher.spawn(command, self.workdir)
        self.attempted += len(batch)
        problem = None
        if b"Traceback" in op.stderr or op.code != 0:
            problem = f"client exit {op.code}: " + op.stderr.decode("utf-8", "replace")[-400:]
        else:
            try:
                answers = json.loads(op.stdout)["answers"]
            except (ValueError, KeyError) as exc:
                answers = []
                problem = f"client output does not parse: {exc!r}"
            expected = [self.prepared.analysis.query(q) for q in batch]
            wrong = [(q, a, e) for q, a, e in zip(batch, answers, expected) if a != e]
            if wrong or len(answers) != len(batch):
                problem = problem or f"query answers differ from the oracle: {wrong[:3]}"
        return self._settle(op, problem, len(batch))

    def _settle(self, op: Op, problem: str | None, answers: int) -> Op | None:
        if problem is None:
            return op
        self.failed += answers
        self.problems.append(problem)
        return None


# -- measurement -----------------------------------------------------------------


def median(values: list[float]) -> float:
    """Median of the samples; 0.0 when every op failed (the result then says incorrect)."""
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it, and the count."""
    text = f"median {median(values):.4f}"
    if len(values) > 10:
        ordered = sorted(values)
        text += f"  p{100 * (len(values) - 10) // len(values)} {ordered[len(values) - 11]:.4f}"
    return text + f"  (n={len(values)})"


def paced(seconds: float):
    """Yield once per op while another op, as long as the last one, ends within `seconds`.

    A run therefore lasts `seconds` rather than up to one op longer.
    """
    deadline = time.perf_counter() + seconds
    previous = 0.0
    while time.perf_counter() + previous < deadline:
        began = time.perf_counter()
        yield
        previous = time.perf_counter() - began


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python job that never calls designlens.

    It gauges the host's speed just before and after each timed op; see
    `at_reference_speed`.
    """
    gc.disable()  # a collection would time the benchmark's own heap, not the host
    try:
        start = time.perf_counter()
        counts: dict[str, int] = {}
        rows = []
        for i in range(REFERENCE_ITEMS):
            key = f"k{i * 7919 % 1009}"
            counts[key] = counts.get(key, 0) + i % 13
            rows.append((counts[key], key))
        rows.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A wall time scaled to a host on which the reference job takes REFERENCE_S.

    A shared host's speed drifts by up to 2x over tens of seconds, and a slow
    spell slows the reference job as much as designlens.  `before` and `after`
    are the reference job's times on either side of the timed work.
    """
    return seconds * 2 * REFERENCE_S / (before + after)


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Run ops for `seconds`; return samples at reference speed, and as wall times."""
    wall: dict[str, list[float]] = {"analyze_s": [], "first_answer_ms": [], "query_ms": []}
    samples: dict[str, list[float]] = {name: [] for name in (*wall, "peak_rss_mb")}
    references = [reference_s()]
    for _ in paced(seconds):
        op = runner.run()
        references.append(reference_s())
        if op is None:
            continue
        times = {"analyze_s": [op.wall_s]}
        if runner.workload.argv:
            # A CLI process gives one answer, its report: first answer and query are the run.
            times["first_answer_ms"] = times["query_ms"] = [op.wall_s * 1000]
        else:
            result = json.loads(op.stdout)
            times["first_answer_ms"] = [result["first_answer_ms"]]
            times["query_ms"] = result["query_ms"]
        for name, values in times.items():
            wall[name].extend(values)
            samples[name].extend(at_reference_speed(value, *references[-2:]) for value in values)
        samples["peak_rss_mb"].append(op.rss_mb)
    wall["reference_s"] = references
    return samples, wall


def traced_run(runner: Runner, seconds: float, setup_spans: dict, run_dir: str,
               label: str) -> dict[str, float]:
    """Alternate traced and untraced ops; return per-layer metrics per answer.

    Op walls are compared at reference speed, as the end-to-end times are.
    """
    traced_walls, plain_walls, span_files = [], [], []
    totals: dict[str, float] = {}
    answers = startup = 0
    references = [reference_s()]
    for _ in paced(seconds):
        path = os.path.join(run_dir, f"spans-{len(span_files)}.json")
        op = runner.run(spans_path=path, op_id=len(span_files))
        references.append(reference_s())
        if op is not None:
            with open(path, encoding="utf-8") as source:
                recorded = json.load(source)
            span_files.append(recorded)
            traced_walls.append(at_reference_speed(op.wall_s, *references[-2:]))
            answers += 1 if runner.workload.argv else QUERIES_PER_ROUND
            for key, value in tracer.self_times(recorded["spans"]).items():
                totals[key] = totals.get(key, 0.0) + value
            for key, value in recorded["counts"].items():
                totals[key] = totals.get(key, 0.0) + value
            if runner.workload.argv:
                startup += op.wall_s - tracer.root_seconds(recorded["spans"], "cli.self")
        plain = runner.run()
        references.append(reference_s())
        if plain is not None:
            plain_walls.append(at_reference_speed(plain.wall_s, *references[-2:]))

    per_answer = {key: value / max(answers, 1) for key, value in totals.items()}
    per_answer["cli.startup_s"] = startup / max(answers, 1)
    per_answer["runtime.gc_s"] = per_answer.pop("runtime.gc_us", 0.0) / 1e6
    per_answer["frontends.write_s"] = tracer.self_times(setup_spans["spans"]).get(
        "frontends.write_s", 0.0)
    per_answer["trace.overhead_s"] = median(traced_walls) - median(plain_walls)

    absent = sorted({name for recorded in span_files for name in recorded["absent"]}
                    | set(setup_spans["absent"]))
    uncounted = sorted({name for recorded in span_files for name in recorded["uncounted"]}
                       | set(setup_spans["uncounted"]))
    with open(os.path.join(WORK, f"spans-{label}.jsonl"), "w", encoding="utf-8") as out:
        for recorded in span_files:
            out.write(json.dumps(recorded) + "\n")
    report = trace_table(per_answer, absent, uncounted, traced_walls, plain_walls, answers, label)
    with open(os.path.join(WORK, f"trace-{label}.txt"), "w", encoding="utf-8") as out:
        out.write(report)
    print(report, end="")
    return per_answer


def trace_table(per_answer: dict[str, float], absent: list[str], uncounted: list[str],
                traced: list[float], plain: list[float], answers: int, label: str) -> str:
    lines = [f"traced run {label}: {len(traced)} traced ops, {answers} answers; "
             f"per answer (one analysis or one query)",
             f"  {'layer / span':<28} {'self s':>10} {'calls':>8}"]
    stems = sorted({key[:-2] for key in per_answer if key.endswith("_s")})
    for stem in stems:
        calls = per_answer.get(f"{stem}.calls")
        calls_text = f"{calls:8.2f}" if calls is not None else f"{'':>8}"
        lines.append(f"  {stem:<28} {per_answer[stem + '_s']:10.5f} {calls_text}")
    lines.append("  counts:")
    for key in sorted(k for k in per_answer if not k.endswith("_s") and not k.endswith(".calls")):
        lines.append(f"    {key:<34} {per_answer[key]:14.2f}")
    lines.append(f"  op at reference speed: traced {describe(traced)} s; untraced "
                 f"{describe(plain)} s; tracing overhead {per_answer['trace.overhead_s']:.4f} s")
    lines.append(f"  absent wrapped names: {', '.join(absent) or 'none'}")
    lines.append(f"  uncounted wrapped names: {', '.join(uncounted) or 'none'}")
    return "\n".join(lines) + "\n"


# -- context -------------------------------------------------------------------


def context(prepared: Prepared) -> dict:
    """What the numbers were measured on; recorded beside them, never gated."""
    lines, digest = 0, hashlib.sha256()
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as source:
                content = source.read()
            lines += content.count(b"\n")
            digest.update(name.encode() + content)
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        commit = found.stdout.strip() or commit
    minioo = prepared.files.get("model.minioo", b"").decode("utf-8")
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
            "input_sha256": prepared.digest[:16], **prepared.counts,
            "tokens": oracle.count_tokens(minioo)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    for needed in (os.path.join(SRC, "designlens", "__init__.py"), REFERENCE_SOURCE,
                   REFERENCE_GOLDEN + ".json", REFERENCE_GOLDEN + ".txt"):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a designlens "
                  f"checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, label)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    launcher = Launcher()
    try:
        return measure_workload(workload, args, run_dir, label, launcher)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def measure_workload(workload: Workload, args, run_dir: str, label: str,
                     launcher: Launcher) -> int:
    setup_spans = {"spans": [], "absent": [], "uncounted": []}
    setup_times, setup_walls, prepared, samples, wall = [], [], None, {}, {}
    reference_s()  # the first call runs cold and would skew the first scaled time
    if args.trace:
        recorder = tracer.Tracer()
        recorder.install()
        prepared = setup(workload, args.seed, run_dir)
        setup_spans = {"spans": recorder.spans, "absent": recorder.absent,
                       "uncounted": sorted(recorder.uncounted)}
    else:
        digest, references = None, [reference_s()]
        while len(setup_times) < SETUP_REPEATS or sum(setup_walls) < SETUP_SECONDS:
            prepared = None
            gc.collect()  # each set-up starts from the same heap
            start = time.perf_counter()
            prepared = setup(workload, args.seed, run_dir)
            setup_walls.append(time.perf_counter() - start)
            references.append(reference_s())
            setup_times.append(at_reference_speed(setup_walls[-1], *references[-2:]))
            if digest not in (None, prepared.digest):
                raise BenchmarkError("the same seed generated different input bytes")
            digest = prepared.digest

    runner = Runner(workload, prepared, run_dir, launcher)
    runner.run()  # warm-up, checked against the oracle; later ops must match it
    info = context(prepared)
    print(f"designlens benchmark {label}: one client, closed loop, {args.seconds:g} s")
    print("context: " + ", ".join(f"{k} {v}" for k, v in info.items()))

    if args.trace:
        values = traced_run(runner, args.seconds, setup_spans, run_dir, label)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in declared("per_layer")}
    else:
        samples, wall = measure(runner, args.seconds)
        samples["setup_s"], wall["setup_s"] = setup_times, setup_walls
        print(f"  time metrics at reference speed (REFERENCE_S {REFERENCE_S} s); wall times "
              f"below each; reference job {describe(wall['reference_s'])} s")
        metrics = {}
        for name, unit in declared("end_to_end"):
            metrics[name] = {"value": median(samples[name]), "unit": unit}
            print(f"  {name:<16} {describe(samples[name])} {unit}")
            if name in wall:
                print(f"  {'':<16} wall {describe(wall[name])} {unit}")
    error_rate = runner.failed / runner.attempted
    print(f"  error_rate       {error_rate:.4f} ({runner.failed} of {runner.attempted} ops failed)")
    for problem in runner.problems[:5]:
        print(f"  failure: {problem}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    with open(os.path.join(WORK, f"result-{label}.json"), "w", encoding="utf-8") as out:
        json.dump({**result, "context": info, "samples": samples, "wall": wall}, out, indent=1)
    print(json.dumps(result))
    return 0


def declared(section: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists in a section; a run reports all of them.

    A per-layer metric of a layer that did no work is reported as zero.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return [(metric["name"], metric["unit"]) for metric in json.load(source)[section]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

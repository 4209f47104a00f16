"""The lietower benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from `src/` as it
is, nothing is installed.  Workloads (closed loops, one client, requests
one after another):

  tower-stubborn  CLI `tower` requests on the stubborn cycle up to the
                  n = 8 headline and on a seeded presentation of its family;
                  each request is a fresh process, so caches start cold.
  boundary-sweep  seeded degree-0 targets solved by library calls inside one
                  process per pass; caches are warm after the first target.
  functor-mix     CLI duality, lemma2, neisendorfer, pronil and validate
                  requests on the shipped inputs.

A run does an untimed warm-up request (so the .pyc files exist), then
timed passes until the next pass would end after --seconds, with PROBES
set-up samples before the first pass and after each (SETUP_SAMPLES at
least).  Every timed request runs the calibration kernel (calib.py)
in-process; its time is left out, and the rest is scaled to the reference
host speed by the kernel's times (calibrated()).  Each set-up sample is
scaled by a run of calib.py in a fresh process right after it.  The raw
medians are on the host line.
Every output is checked: exit code and the
sha256 of the structured output against perfbench/references.json, plus
reference-free checks.  A request that exceeds its timeout is killed and
counted as failed, and the pass goes on.

With --trace 0 the last line of stdout reports the end-to-end metrics;
with --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics of the median traced pass (spans recorded by
perfbench/tracer.py, installed from outside the package).  Exit status is 0 whenever the run
completed, also if checks failed (then "correct" is false); it is 2 when the
checkout lacks the package or its inputs.

    python3 perfbench/run.py --make-references 0-11

re-records the references for the fixed requests and for the given seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import calib
import gen
import wordcheck
from sweep import N as SWEEP_N

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
FILES = "demos/files"
STUBBORN = f"{FILES}/stubborn_cycle.dgl"
REFERENCES = BENCH / "references.json"

PROBES = 4  # set-up samples taken before the first pass and after each
SETUP_SAMPLES = 16  # at least this many in a run
SCALE_WINDOW = 8  # kernel times a process's scale is taken over, at least
SWEEP_TARGETS = 12
RUN_CAP_S = 160.0  # no request starts, and none runs on, past this point of a run
PYTHON = sys.executable
CLI_ENTRY = "import sys\nfrom lietower.cli import main\nsys.exit(main())"

E2E_UNITS = {
    "pass_s": "s",
    "cpu_s": "s",
    "report_s_p50": "s",
    "report_s_max": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Outcome:
    code: int | None  # None on timeout
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], timeout: float, stdout_path: Path) -> Outcome:
    """Run argv to completion or kill it at the timeout; wall time runs from
    spawn to exit, CPU and peak RSS come from the child's wait4 rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
    pidfd = os.pidfd_open(proc.pid)
    exited = []
    try:
        exited = select.select([pidfd], [], [], max(timeout, 0.0))[0]
    finally:  # on timeout, and when the run is interrupted, kill before reaping
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode if exited else None, wall, ru.ru_utime + ru.ru_stime,
                   ru.ru_maxrss / 1024.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """One pass: the sums of its processes' times, raw and scaled to the
    reference host speed, and its request latencies."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: list[float] = field(default_factory=list)
    scaled_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    span_files: list[Path] = field(default_factory=list)

    def record(self, out: Outcome, scale: float):
        self.wall_s += out.wall_s
        self.cpu_s += out.cpu_s
        self.scaled_wall_s += out.wall_s * scale
        self.scaled_cpu_s += out.cpu_s * scale
        self.peak_rss_mb = max(self.peak_rss_mb, out.rss_mb)

    def latency(self, wall_s: float, scale: float):
        self.latencies.append(wall_s)
        self.scaled_latencies.append(wall_s * scale)


@dataclass
class Request:
    key: str  # reference key: the CLI arguments with seeded paths abstracted
    argv: list[str]
    timeout: float
    seeded: bool = False


class Run:
    """State of one benchmark run: deadline, work directory, checks."""

    def __init__(self, workload: str, seed: int, workdir: Path, refs: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.start = perf_counter()
        self.seen: dict[str, str] = {}  # request key -> output digest within this run
        self.problems: list[str] = []
        self.kernel_s: list[float] = []  # calibration kernel times of the run's processes
        self._n = 0

    def remaining(self) -> float:
        return RUN_CAP_S - (perf_counter() - self.start)

    def scratch(self, suffix: str) -> Path:
        self._n += 1
        return self.workdir / f"r{self._n}{suffix}"

    def fail(self, what: str):
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def expect(self, key: str, seeded: bool, code: int | None, digest: str) -> bool:
        """Compare one output with its reference and with earlier passes."""
        if code is None:
            self.fail(f"{key}: timed out")
            return False
        if seeded:
            seed_refs = self.refs.get("seeded", {}).get(self.workload, {}).get(str(self.seed))
            # a seed without recorded references gets only the other checks
            ref = {"exit": 0, "sha256": None} if seed_refs is None else seed_refs.get(key)
        else:
            ref = self.refs.get("requests", {}).get(key)
        if ref is None:
            self.fail(f"{key}: no reference recorded")
            return False
        ok = code == ref["exit"] and ref["sha256"] in (None, digest)
        if key in self.seen and self.seen[key] != digest:
            ok = False  # traced and untraced (or repeated) outputs must be byte-identical
        self.seen.setdefault(key, digest)
        if not ok:
            self.fail(f"{key}: exit {code}, sha256 {digest[:12]}, expected {ref}")
        return ok


# ---------------------------------------------------------------------------
# host speed


def calibrated(run: Run, out: Outcome, samples_path: Path) -> tuple[Outcome, float]:
    """The outcome of a process that ran the calibration kernel, without the
    kernel's time, and its scale to the reference host speed (1 if it wrote
    no kernel times, as when it was killed).  The scale is taken over the
    process's own kernel times, and a short process, with fewer than
    SCALE_WINDOW of them, borrows the run's latest ones to make up that many."""
    try:
        samples = json.loads(samples_path.read_text())
    except (OSError, ValueError):
        if out.code == 0:
            run.fail(f"{samples_path.name}: no calibration kernel times")
        return out, 1.0
    run.kernel_s += samples
    spent = sum(samples)
    window = run.kernel_s[-max(SCALE_WINDOW, len(samples)):]
    return Outcome(out.code, out.wall_s - spent, out.cpu_s - spent, out.rss_mb), calib.scale(window)


def spawn_calibration(run: Run) -> float:
    """Wall time of `calib.py` in a fresh process, spawn to exit."""
    out_path = run.scratch(".out")
    out = spawn([PYTHON, str(BENCH / "calib.py")], min(20.0, run.remaining()), out_path)
    if out.code != 0 or out_path.read_text().strip() != calib.CHECKSUM:
        run.fail(f"calibration kernel: exit {out.code}, output {out_path.read_text().strip()!r}")
    return out.wall_s


# ---------------------------------------------------------------------------
# CLI workloads


def tower_requests(run: Run) -> list[Request]:
    seeded = run.workdir / "seeded.dgl"
    seeded.write_text(gen.seeded_dgl(run.seed))
    fmt = ["--format", "structured"]
    return [
        Request(f"tower {STUBBORN} --degrees 0..2 --max-length 6",
                ["tower", STUBBORN, "--degrees", "0..2", "--max-length", "6", *fmt], 30),
        Request(f"tower {STUBBORN} --degrees 0..2 --max-length 7",
                ["tower", STUBBORN, "--degrees", "0..2", "--max-length", "7", *fmt], 45),
        Request(f"tower {STUBBORN} --degrees 1..1 --max-length 8",
                ["tower", STUBBORN, "--degrees", "1..1", "--max-length", "8", *fmt], 90),
        Request("tower <seeded.dgl> --degrees 0..2 --max-length 7",
                ["tower", str(seeded), "--degrees", "0..2", "--max-length", "7", *fmt], 45,
                seeded=True),
    ]


def functor_requests(run: Run) -> list[Request]:
    fmt = ["--format", "structured"]
    sphere = f"{FILES}/even_sphere.sullivan"
    reqs = [
        (["duality", sphere, "--max-degree", "14", "--max-length", "4"], 30),
        (["lemma2", sphere, "--degrees", "1..10"], 30),
        (["neisendorfer", f"{FILES}/heisenberg.sullivan", "--max-length", "5"], 30),
        (["neisendorfer", sphere], 20),
        (["neisendorfer", f"{FILES}/even_line.sullivan"], 20),
        (["pronil", f"{FILES}/affine_line.lietable"], 20),
        (["pronil", f"{FILES}/heisenberg.lietable"], 20),
    ]
    reqs += [(["validate", f"{FILES}/{name}"], 20) for name in sorted(os.listdir(ROOT / FILES))]
    return [Request(" ".join(argv), [*argv, *fmt], timeout) for argv, timeout in reqs]


def tower_structure_ok(output: bytes) -> bool:
    """Reference-free sanity of a structured tower report (seeds without a
    recorded reference): every degree has rows n = 2..7 with dim_H
    representatives and 0 <= dim_image <= dim_H."""
    try:
        reports = json.loads(output)["reports"]
        for q, rep in enumerate(reports):
            if rep["degree"] != q or [r["n"] for r in rep["rows"]] != list(range(2, 8)):
                return False
            for r in rep["rows"]:
                if len(r["representatives"]) != r["dim_H"] or not 0 <= r["dim_image"] <= r["dim_H"]:
                    return False
        return len(reports) == 3
    except (ValueError, KeyError, TypeError):
        return False


def cli_argv(args: list[str], spans: Path | None, samples: Path) -> list[str]:
    """A timed request runs the calibration kernel beside it; a traced one
    runs under the tracer instead."""
    if spans is None:
        return [PYTHON, str(BENCH / "request.py"), str(samples), *args]
    return [PYTHON, str(BENCH / "tracer.py"), str(spans), *args]


def cli_pass(run: Run, requests: list[Request], traced: bool) -> Pass:
    p = Pass(traced)
    for req in requests:
        p.attempted += 1
        if run.remaining() <= 0:
            run.fail(f"{req.key}: not started, run time cap reached")
            p.failed += 1
            continue
        out_path = run.scratch(".out")
        spans = out_path.with_suffix(".spans") if traced else None
        samples = out_path.with_suffix(".samples")
        out = spawn(cli_argv(req.argv, spans, samples), min(req.timeout, run.remaining()), out_path)
        scale = 1.0
        if not traced:
            out, scale = calibrated(run, out, samples)
        p.record(out, scale)
        p.latency(out.wall_s, scale)
        output = out_path.read_bytes()
        ok = run.expect(req.key, req.seeded, out.code, sha256(output))
        if ok and req.seeded and not tower_structure_ok(output):
            run.fail(f"{req.key}: malformed tower report")
            ok = False
        if not ok:
            p.failed += 1
        if traced and spans.exists():
            p.span_files.append(spans)
    return p


def cli_setup(run: Run, path: str) -> Outcome:
    """Set-up of a CLI workload: a `validate` request on its input."""
    out_path = run.scratch(".out")
    out = spawn([PYTHON, "-c", CLI_ENTRY, "validate", path], min(20.0, run.remaining()), out_path)
    if out.code != 0:
        run.fail(f"set-up validate {path}: exit {out.code}")
    return out


# ---------------------------------------------------------------------------
# boundary sweep


def sweep_setup(run: Run, path: str) -> Outcome:
    """Set-up of the sweep: import, parse and validate P in a fresh worker."""
    argv = [PYTHON, str(BENCH / "sweep.py"), path, "--setup-only"]
    out = spawn(argv, min(20.0, run.remaining()), run.scratch(".out"))
    if out.code != 0:
        run.fail(f"sweep set-up: exit {out.code}")
    return out


class SweepChecker:
    """Checks on sweep results that need no reference."""

    def __init__(self):
        self.pres = wordcheck.Presentation.from_dgl_text((ROOT / STUBBORN).read_text())

    def problems(self, expr: str, rec: dict) -> list[str]:
        res, wit = rec["result"], rec["witness"]
        trunc_sat = res["truncated"]["status"] == "SAT"
        exact_sat = res["exact"]["status"] == "SAT"
        out = []
        if exact_sat == res["excluded"]:
            out.append("exact SAT must hold exactly when the top-length report does not exclude")
        if exact_sat and not trunc_sat:
            out.append("exact SAT without truncated SAT")
        target = self.pres.parse(expr)
        for kind, n in (("truncated", SWEEP_N), ("exact", None)):
            terms = wit[kind]
            if res[kind]["status"] == "SAT":
                witness = {tuple(w): Fraction(c) for w, c in terms}
                if not wordcheck.witness_ok(self.pres, witness, target, n):
                    out.append(f"{kind} witness fails d(u) = t in the word-level evaluator")
        return out


def sweep_pass(run: Run, targets: list[str], checker: SweepChecker, traced: bool) -> Pass:
    p = Pass(traced)
    targets_path = run.workdir / "targets.json"
    targets_path.write_text(json.dumps(targets))
    out_path = run.scratch(".jsonl")
    samples = out_path.with_suffix(".samples")
    argv = [PYTHON, str(BENCH / "sweep.py"), STUBBORN, str(targets_path), str(out_path),
            "--samples", str(samples)]
    spans = out_path.with_suffix(".spans")
    if traced:
        argv += ["--spans", str(spans)]
    out = spawn(argv, min(90.0, run.remaining()), out_path.with_suffix(".log"))
    out, scale = calibrated(run, out, samples)
    if out.code != 0:
        run.fail(f"sweep worker: exit {out.code}")
    records = {}
    if out_path.exists():
        for line in out_path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:  # the last line of a worker killed mid-write
                continue
            records[rec["i"]] = rec
    for i, expr in enumerate(targets):
        p.attempted += 1
        rec = records.get(i)
        key = f"target {i}"
        if rec is None or "error" in rec:
            run.fail(f"{key} ({expr}): {rec['error'] if rec else 'no result'}")
            p.failed += 1
            continue
        # scaled by the kernel runs inside the worker just before and after it
        p.latency(rec["latency_s"], calib.scale(rec["calib_s"]))
        digest = sha256(json.dumps(rec["result"], sort_keys=True, separators=(",", ":")).encode())
        ok = run.expect(key, True, 0, digest)
        for problem in checker.problems(expr, rec):
            run.fail(f"{key} ({expr}): {problem}")
            ok = False
        if not ok:
            p.failed += 1
    # the part of the worker's time outside the targets (start, set-up,
    # bookkeeping) is scaled by all of its kernel runs
    scaled = (out.wall_s - sum(p.latencies)) * scale + sum(p.scaled_latencies)
    p.record(out, _ratio(scaled, out.wall_s))
    if traced and spans.exists():
        p.span_files.append(spans)
    return p


# ---------------------------------------------------------------------------
# traces


def span_stats(span_files: list[Path]) -> tuple[dict, dict, dict, float]:
    """Self time and calls per span name, summed counters, and the total
    duration of root spans, over the span files of one pass."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    roots = 0.0
    for path in span_files:
        data = json.loads(path.read_text())
        spans = data["spans"]
        child = [0] * len(spans)
        for name, start, end, parent, _req in spans:
            if end < start or (parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]):
                raise ValueError(f"{path.name}: span {name} does not nest in its parent")
            if parent >= 0:
                child[parent] += end - start
            else:
                roots += (end - start) / 1e9
        for (name, start, end, _p, _r), c in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - c) / 1e9
            calls[name] = calls.get(name, 0) + 1
        for name, value in data["counters"].items():
            if name == "linalg.max_coeff_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return self_s, calls, counters, roots


LAYERS = ("cli", "exprs", "freelie", "dgl", "linalg", "functors", "pronil")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    s, calls, c, roots = span_stats(p.span_files)
    t = lambda name: s.get(name, 0.0)  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    k = lambda name: c.get(name, 0)  # noqa: E731
    basis_hits, basis_misses = k("freelie.lie_basis.hits"), k("freelie.lie_basis.misses")
    out = {
        "freelie.lie_basis.self_s": (t("freelie.lie_basis"), "s"),
        "freelie.lie_basis.misses": (basis_misses, "count"),
        "freelie.lie_basis.hit_ratio": (_ratio(basis_hits, basis_hits + basis_misses), "ratio"),
        "freelie.words_of.self_s": (t("freelie.words_of"), "s"),
        "freelie.lie_dim.self_s": (t("freelie.lie_dim"), "s"),
        "dgl.coords.self_s": (t("dgl.coords"), "s"),
        "dgl.coords.calls": (n("dgl.coords"), "count"),
        "dgl.extend_derivation.self_s": (t("dgl.extend_derivation"), "s"),
        "dgl.d_image.calls": (n("dgl.d_image"), "count"),
        "dgl.d_image.hit_ratio": (_ratio(k("dgl.d_image.hits"), n("dgl.d_image")), "ratio"),
        "dgl.slice.builds": (n("dgl.slice"), "count"),
        "dgl.complex.builds": (n("dgl.complex"), "count"),
        "dgl.complex.self_s": (t("dgl.complex"), "s"),
        "dgl.complex.nnz": (k("dgl.complex.nnz"), "count"),
        "dgl.tower.self_s": (t("dgl.tower"), "s"),
        "dgl.boundary_solve.self_s": (t("dgl.boundary_solve"), "s"),
        "dgl.obstruction.self_s": (t("dgl.obstruction"), "s"),
        "linalg.insert.calls": (n("linalg.insert"), "count"),
        "linalg.insert.self_s": (t("linalg.insert"), "s"),
        "linalg.insert.useful_ratio": (_ratio(k("linalg.insert.useful"), n("linalg.insert")), "ratio"),
        "linalg.rref.self_s": (t("linalg.rref"), "s"),
        "linalg.reduce.calls": (n("linalg.reduce"), "count"),
        "linalg.reduce.self_s": (t("linalg.reduce"), "s"),
        "linalg.solve_affine.self_s": (t("linalg.solve_affine"), "s"),
        "linalg.homology_at.self_s": (t("linalg.homology_at"), "s"),
        # each Subspace.contains* call builds a fresh echelon
        "linalg.subspace_rebuilds": (
            n("linalg.subspace_contains") + n("linalg.subspace_contains_subspace"), "count"),
        "linalg.max_coeff_bits": (k("linalg.max_coeff_bits"), "bits"),
        "functors.duality.self_s": (t("functors.duality"), "s"),
        "functors.bar_E.self_s": (t("functors.bar_E"), "s"),
        "functors.model.self_s": (t("functors.model"), "s"),
        "functors.lemma2.self_s": (t("functors.lemma2"), "s"),
        "pronil.audit.self_s": (t("pronil.audit"), "s"),
        "cli.import_s": (t("cli.import"), "s"),
        "cli.parse.self_s": (t("cli.parse"), "s"),
        "cli.emit.self_s": (t("cli.emit"), "s"),
        "cli.output_bytes": (k("cli.output_bytes"), "bytes"),
    }
    for layer in LAYERS:
        total = sum(v for name, v in s.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_s"] = (total, "s")
    out["trace.unattributed_s"] = (p.wall_s - roots, "s")
    out["trace.pass_s"] = (p.wall_s, "s")
    out["trace.spans"] = (sum(calls.values()), "count")
    return out


# ---------------------------------------------------------------------------
# host noise


def _cpu_times() -> tuple[int, int]:
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return sum(fields), fields[7]  # total jiffies (guest time is inside user), steal


def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def bound_of(metric: str) -> float | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((m["bound"] for m in spec["end_to_end"] if m["name"] == metric), None)


# ---------------------------------------------------------------------------
# the run


WORKLOADS = {
    "tower-stubborn": (tower_requests, cli_setup, STUBBORN),
    "boundary-sweep": (None, sweep_setup, STUBBORN),
    "functor-mix": (functor_requests, cli_setup, f"{FILES}/even_sphere.sullivan"),
}


def run_workload(run: Run, seconds: float, trace: bool) -> tuple[list[Pass], dict, dict]:
    make_requests, setup, setup_input = WORKLOADS[run.workload]
    if make_requests is None:
        targets = gen.sweep_targets(run.seed, SWEEP_TARGETS)
        checker = SweepChecker()
        one_pass = lambda traced: sweep_pass(run, targets, checker, traced)  # noqa: E731
    else:
        requests = make_requests(run)
        one_pass = lambda traced: cli_pass(run, requests, traced)  # noqa: E731

    setup(run, setup_input)  # warm-up: compiles the .pyc files, untimed
    spawn_calibration(run)
    setups: list[tuple[float, float]] = []  # (raw, scaled) set-up samples

    def probe():
        wall = setup(run, setup_input).wall_s
        setups.append((wall, wall * calib.REFERENCE_SPAWN_S / spawn_calibration(run)))

    def probe_round():
        for _ in range(PROBES):
            probe()

    cycle = (False, True) if trace else (False,)
    passes: list[Pass] = []
    probe_round()
    t0 = perf_counter()
    while True:
        for traced in cycle:
            passes.append(one_pass(traced))
        probe_round()
        per_cycle = (perf_counter() - t0) / (len(passes) / len(cycle))
        if perf_counter() - t0 + per_cycle > seconds or run.remaining() < per_cycle:
            break
    while len(setups) < SETUP_SAMPLES and run.remaining() > 0:
        probe()

    timed = [p for p in passes if not p.traced]
    med = lambda xs: statistics.median(list(xs))  # noqa: E731
    calibration = {
        "reference_kernel_s": calib.REFERENCE_KERNEL_S,
        "kernel_s_p50": med(run.kernel_s) if run.kernel_s else None,
        "raw": {
            "pass_s": med(p.wall_s for p in timed),
            "cpu_s": med(p.cpu_s for p in timed),
            "report_s_p50": med(med(p.latencies or [p.wall_s]) for p in timed),
            "report_s_max": med(max(p.latencies, default=p.wall_s) for p in timed),
            "setup_s": med(raw for raw, _ in setups),
        },
    }
    if not trace:
        values = {
            "pass_s": med(p.scaled_wall_s for p in timed),
            "cpu_s": med(p.scaled_cpu_s for p in timed),
            "report_s_p50": med(med(p.scaled_latencies or [p.scaled_wall_s]) for p in timed),
            "report_s_max": med(max(p.scaled_latencies, default=p.scaled_wall_s) for p in timed),
            "peak_rss_mb": med(p.peak_rss_mb for p in timed),
            "setup_s": med(scaled for _, scaled in setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    else:
        traced = [p for p in passes if p.traced]
        per_pass = []
        for p in traced:
            try:
                per_pass.append(layer_metrics(p))
            except (OSError, ValueError, KeyError) as err:
                run.fail(f"trace of a pass unreadable: {err}")
        metrics = {}
        if per_pass:
            # all layer metrics of one pass, the median one by time, so that
            # the layer self times and the remainder add up to its pass_s
            chosen = sorted(per_pass, key=lambda m: m["trace.pass_s"][0])[(len(per_pass) - 1) // 2]
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in chosen.items()}
            for m in per_pass:
                if m["trace.unattributed_s"][0] < 0:
                    run.fail("spans cover more than the traced pass's wall time")
        overhead = _ratio(med(p.wall_s for p in traced), med(p.wall_s for p in timed)) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return passes, metrics, calibration


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def make_references(seeds: list[int]) -> int:
    """Record exit code and output digest of every request on this commit:
    the fixed requests once, the seeded ones for each of the given seeds."""
    refs: dict = {"requests": {}, "seeded": {"tower-stubborn": {}, "boundary-sweep": {}}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for workload, seed in [("functor-mix", seeds[0])] + [("tower-stubborn", s) for s in seeds]:
            run = Run(workload, seed, Path(tmp), {})
            for req in WORKLOADS[workload][0](run):
                if not req.seeded and req.key in refs["requests"]:
                    continue
                out_path = run.scratch(".out")
                out = spawn(cli_argv(req.argv, None, out_path.with_suffix(".samples")), 600, out_path)
                entry = {"exit": out.code, "sha256": sha256(out_path.read_bytes())}
                print(f"{workload} seed {seed}: {req.key} -> {entry}", file=sys.stderr)
                if req.seeded:
                    refs["seeded"][workload].setdefault(str(seed), {})[req.key] = entry
                else:
                    refs["requests"][req.key] = entry
        for seed in seeds:
            run = Run("boundary-sweep", seed, Path(tmp), {})
            p = sweep_pass(run, gen.sweep_targets(seed, SWEEP_TARGETS), SweepChecker(), False)
            if p.failed or run.problems:
                print(f"boundary-sweep seed {seed}: checks failed", file=sys.stderr)
                return 1
            refs["seeded"]["boundary-sweep"][str(seed)] = {
                key: {"exit": 0, "sha256": digest} for key, digest in run.seen.items()
            }
            print(f"boundary-sweep seed {seed}: {len(run.seen)} targets", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-references", metavar="SEEDS", help="e.g. 0-11")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/lietower/cli.py", STUBBORN) if not (ROOT / p).is_file()]
    if missing:
        print(f"checkout lacks {', '.join(missing)}; run from the root of a lietower checkout",
              file=sys.stderr)
        return 2
    if args.make_references:
        return make_references(parse_seeds(args.make_references))
    if not args.workload:
        ap.error("--workload is required")

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    refs = json.loads(REFERENCES.read_text())
    total0, steal0 = _cpu_times()
    load0 = _loadavg()
    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-"))
    try:
        run = Run(args.workload, args.seed, workdir, refs)
        passes, metrics, calibration = run_workload(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    total1, steal1 = _cpu_times()
    steal_share = _ratio(steal1 - steal0, total1 - total0)
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "pythonhashseed": child_env()["PYTHONHASHSEED"],
        "steal_share": steal_share,
        "loadavg_1m": [load0, _loadavg()],
        "passes": len(passes),
        "pass_s": [round(p.wall_s, 4) for p in passes],
        "calibration": calibration,
    }
    limit = bound_of("pass_s")
    if limit is not None and steal_share > limit:
        host["flag"] = f"steal share {steal_share:.3f} above the bound {limit}"
        print(f"warning: {host['flag']}; timings of this run are suspect", file=sys.stderr)
    print(json.dumps({"host": host}))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

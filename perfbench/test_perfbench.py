"""Self-checks of the benchmark's tracer, generators and checkers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import wordcheck  # noqa: E402

import lietower  # noqa: E402
import lietower.cli  # noqa: E402
from lietower import dgl, freelie  # noqa: E402


@pytest.fixture
def installed():
    t = tracer.Tracer()
    sites = t.install()
    try:
        yield t, sites
    finally:
        t.uninstall()


def test_every_wrapped_name_has_a_binding_site(installed):
    _, sites = installed
    assert set(sites) == {name for _, _, name in tracer.TARGETS}
    assert all(sites.values()), [name for name, found in sites.items() if not found]
    assert {"lietower.reduce", "lietower.linalg.reduce", "lietower.dgl.reduce",
            "lietower.functors.m_reduce"} <= set(sites["linalg.reduce"])
    assert {"lietower.lie_basis", "lietower.freelie.lie_basis", "lietower.dgl.lie_basis",
            "lietower.functors.lie_basis"} <= set(sites["freelie.lie_basis"])
    assert "lietower.cli.dgl_validate" in sites["dgl.validate"]


def test_uninstall_restores_the_package():
    originals = (lietower.reduce, dgl.lie_basis, dgl.DegreeSlice.coords)
    t = tracer.Tracer()
    t.install()
    assert dgl.lie_basis is not originals[1]
    t.uninstall()
    assert (lietower.reduce, dgl.lie_basis, dgl.DegreeSlice.coords) == originals


def test_recursion_through_the_module_global_is_traced(installed):
    t, _ = installed
    gens = freelie.GeneratorSet(["a", "b"], [0, 0])  # fresh key: caches are cold
    freelie.lie_dim(gens, 6, 0)
    dims = [i for i, s in enumerate(t.spans) if s[0] == "freelie.lie_dim"]
    assert any(t.spans[i][3] in dims for i in dims)  # a lie_dim span inside a lie_dim span


def test_counters_and_self_times(installed, tmp_path):
    t, _ = installed
    P = dgl.DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1)], {"z": "x - [y, x]"})
    lietower.homology_tower(P, 1, range(2, 5))
    lietower.homology_tower(P, 1, range(2, 5))
    assert t.counters["freelie.lie_basis.hits"] > 0
    assert t.counters["dgl.d_image.hits"] > 0 and t.counters["dgl.complex.nnz"] > 0
    assert t.counters["linalg.insert.useful"] > 0 and t.counters["linalg.max_coeff_bits"] >= 1
    path = tmp_path / "spans.json"
    t.dump(str(path))
    self_s, calls, _, roots = run.span_stats([path])
    assert calls["dgl.tower"] == 2
    assert sum(self_s.values()) == pytest.approx(roots)
    m = run.layer_metrics(run.Pass(True, wall_s=roots + 0.5, span_files=[path]))
    layers = sum(v for name, (v, _) in m.items() if name.startswith("layer."))
    assert layers + m["trace.unattributed_s"][0] == pytest.approx(m["trace.pass_s"][0])
    assert m["trace.unattributed_s"][0] == pytest.approx(0.5)


def _cli(argv: list[str], traced: bool, tmp_path: Path) -> subprocess.CompletedProcess:
    spans = tmp_path / "s.json" if traced else None
    return subprocess.run(run.cli_argv(argv, spans, tmp_path / "k.json"),
                          capture_output=True, env=run.child_env(), cwd=ROOT, timeout=120)


@pytest.mark.parametrize("argv", [
    ["tower", run.STUBBORN, "--degrees", "0..2", "--max-length", "5", "--format", "structured"],
    ["neisendorfer", f"{run.FILES}/heisenberg.sullivan", "--max-length", "4", "--format", "structured"],
    ["pronil", f"{run.FILES}/heisenberg.lietable"],
])
def test_traced_and_untraced_outputs_are_byte_identical(argv, tmp_path):
    plain, traced = _cli(argv, False, tmp_path), _cli(argv, True, tmp_path)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout and plain.stdout
    spans = json.loads((tmp_path / "s.json").read_text())["spans"]
    assert spans[0][0] == "cli.import" and any(s[0] == "cli.main" for s in spans)
    assert len(json.loads((tmp_path / "k.json").read_text())) >= 2  # kernel times of the plain run


def test_generators_are_deterministic():
    assert gen.seeded_dgl(7) == gen.seeded_dgl(7)
    assert gen.sweep_targets(7, 24) == gen.sweep_targets(7, 24)
    assert len({gen.seeded_dgl(s) for s in range(20)}) > 5
    assert gen.sweep_targets(1, 24) != gen.sweep_targets(2, 24)


def test_lyndon_words_are_counted_by_the_necklace_formula():
    counts = [sum(1 for w in gen.lyndon_words("xy", 6) if len(w) == k) for k in range(1, 7)]
    assert counts == [2, 1, 2, 3, 6, 9]


@pytest.mark.parametrize("seed", range(40))
def test_every_generated_dgl_passes_validate(seed, tmp_path):
    path = tmp_path / "seeded.dgl"
    path.write_text(gen.seeded_dgl(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        assert lietower.cli.main(["validate", str(path)]) == 0


def test_word_evaluator_agrees_with_the_package_derivation():
    text = gen.seeded_dgl(3)
    pres = wordcheck.Presentation.from_dgl_text(text)
    P = lietower.cli.parse(text).to_dgl()
    for expr in ["z", "[x, z]", "[[y, z], x] - 2*[z, [x, y]]", "[z, z]", "3*[x, [y, [x, z]]]"]:
        mine = pres.differential(pres.parse(expr))
        theirs = dgl.extend_derivation(P, freelie.parse_element(P.gens, expr))
        assert mine == {tuple(P.gens.names[g] for g in w): c for w, c in theirs.terms.items()}


def test_sweep_checker_accepts_true_and_rejects_false_witnesses():
    checker = run.SweepChecker()
    sat = {"status": "SAT"}
    rec = {"result": {"truncated": sat, "exact": sat, "excluded": False},
           "witness": {"truncated": [[["z"], "1"]], "exact": [[["z"], "1"]]}}
    assert checker.problems("x - [y, x]", rec) == []
    rec["witness"]["exact"] = [[["z"], "2"]]
    assert len(checker.problems("x - [y, x]", rec)) == 1
    rec["result"]["excluded"] = True
    assert len(checker.problems("x - [y, x]", rec)) == 2
    assert checker.pres.parse("1/2*[x, y]") == {("x", "y"): Fraction(1, 2), ("y", "x"): Fraction(-1, 2)}


def test_sweep_targets_are_distinct_and_short():
    targets = gen.sweep_targets(5, 24)
    assert len(targets) == len(set(targets)) == 24
    pres = wordcheck.Presentation.from_dgl_text((ROOT / run.STUBBORN).read_text())
    for t in targets:
        assert all(len(w) <= 6 for w in pres.parse(t))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = {name: unit for name, (_, unit) in run.layer_metrics(run.Pass(True)).items()}
    layer["trace.overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]


def test_calibration_kernel_is_fixed_work():
    assert calib.kernel(calib.ROUNDS) == calib.CHECKSUM
    assert calib.kernel(calib.ROUNDS + 1) != calib.CHECKSUM
    assert 0 < calib.timed_kernel() < 10


def test_scale_is_the_reference_over_the_interquartile_mean():
    ref = calib.REFERENCE_KERNEL_S
    assert calib.scale([ref]) == pytest.approx(1.0)
    assert calib.scale([ref, 3 * ref]) == pytest.approx(0.5)
    # a quarter of the samples at each end is left out
    assert calib.scale([ref / 10, ref, ref, 50 * ref]) == pytest.approx(1.0)


def test_a_timed_request_is_scaled_by_its_kernel_times(tmp_path):
    r = run.Run("functor-mix", 0, tmp_path, json.loads(run.REFERENCES.read_text()))
    req = [req for req in run.functor_requests(r) if req.argv[0] == "lemma2"]
    p = run.cli_pass(r, req, traced=False)
    assert (p.attempted, p.failed) == (1, 0) and r.problems == []
    assert len(r.kernel_s) >= 3  # before, once a second (lemma2 takes over 1 s), after
    assert p.scaled_latencies[0] == pytest.approx(p.latencies[0] * calib.scale(r.kernel_s))
    # a short request borrows the run's latest kernel times
    req = [req for req in run.functor_requests(r) if req.argv[0] == "validate"][:1]
    p = run.cli_pass(r, req, traced=False)
    assert p.scaled_latencies[0] == pytest.approx(p.latencies[0] * calib.scale(r.kernel_s[-8:]))
    assert run.spawn_calibration(r) > 0 and r.problems == []


def test_sweep_targets_are_scaled_by_the_kernel_runs_around_them(tmp_path):
    r = run.Run("boundary-sweep", 0, tmp_path, {})
    p = run.sweep_pass(r, gen.sweep_targets(0, 2), run.SweepChecker(), False)
    assert (p.attempted, p.failed) == (2, 0) and r.problems == []
    assert len(p.scaled_latencies) == 2 and min(p.scaled_latencies) > 0
    assert 0 < sum(p.latencies) < p.wall_s and p.scaled_wall_s > sum(p.scaled_latencies)
    assert len(r.kernel_s) == 4  # before the import, before the first target and after each


def test_a_request_past_its_timeout_is_killed_and_the_pass_goes_on(tmp_path):
    refs = json.loads(run.REFERENCES.read_text())
    r = run.Run("functor-mix", 0, tmp_path, refs)
    reqs = [req for req in run.functor_requests(r) if req.argv[0] == "validate"][:2]
    reqs[0].timeout = 0.01
    p = run.cli_pass(r, reqs, traced=False)
    assert (p.attempted, p.failed) == (2, 1)
    assert r.problems == [f"{reqs[0].key}: timed out"]
    out = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.2, tmp_path / "s.out")
    assert out.code is None and out.wall_s < 10


def _cmdlines() -> list[str]:
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                out.append(fh.read().replace(b"\0", b" ").decode(errors="replace"))
        except OSError:
            pass
    return out


def test_sigterm_stops_the_running_child_and_cleans_up():
    proc = subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--workload", "boundary-sweep",
                             "--seed", "0", "--seconds", "5"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    workers = []
    while not workers and time.monotonic() < deadline:  # wait for a sweep pass
        time.sleep(0.05)
        workers = [c for c in _cmdlines() if "sweep.py" in c and "targets.json" in c]
    assert workers
    workdir = workers[0].split("targets.json")[0].split()[-1]
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=60)
    assert proc.returncode == 143 and stdout == b""
    assert not any(workdir in c for c in _cmdlines())
    assert not Path(workdir).exists()


def test_bare_directory_is_refused(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "functor-mix",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=60, env=dict(os.environ))
    assert proc.returncode != 0 and proc.stdout == b""

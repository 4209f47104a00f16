"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--seconds S] [--baseline]

Runs run.py once per workload and seed, workloads interleaved, one run at
a time, from the root of a checkout.  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json; the same for the raw (unscaled) times from
the host line.  With --baseline it writes the result to baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, parse_seeds

BENCH = Path(__file__).resolve().parent


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": len(values)}


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}

    def run(w: str, seed: int, trace: int) -> tuple[dict, dict]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               check=True).stdout.splitlines()
        return json.loads(lines[-2])["host"], json.loads(lines[-1])

    seeds = parse_seeds(args.seeds)
    results: dict = {w: [] for w in workloads}
    ok = True
    for seed in seeds:
        for w in workloads:
            host, result = run(w, seed, 0)
            ok &= result["correct"] and result["failed"] == 0
            results[w].append((host, result))
            print(f"{w} seed {seed}: correct {result['correct']}, failed {result['failed']}/"
                  f"{result['attempted']}, steal {host['steal_share']:.3f}", file=sys.stderr)

    out: dict = {}
    for w, runs in results.items():
        print(f"{w} ({len(runs)} runs)")
        out[w] = {"end_to_end": {}}
        for name, (unit, bound) in bounds.items():
            s = summary([r["metrics"][name]["value"] for _, r in runs])
            out[w]["end_to_end"][name] = {"unit": unit, **s}
            raw = [h["calibration"]["raw"].get(name) for h, _ in runs]
            raw = None if None in raw else raw
            raw_text = f"   raw spread {summary(raw)['spread']:.3f}" if raw else ""
            print(f"  {name:14s} median {s['median']:10.4f} {unit:3s} spread {s['spread']:.3f}"
                  f" (bound {bound}, a third {bound / 3:.3f}){raw_text}")
        out[w]["correct_runs"] = sum(r["correct"] for _, r in runs)
        out[w]["steal_share_max"] = max(h["steal_share"] for h, _ in runs)
    if args.baseline:
        for w in workloads:
            _, result = run(w, seeds[0], 1)
            ok &= result["correct"]
            out[w]["per_layer"] = result["metrics"]
        host = results[workloads[0]][0][0]
        doc = {
            "how": f"end_to_end: median and quartiles of --trace 0 runs, seeds {args.seeds}, "
                   f"--seconds {args.seconds:g}, workloads interleaved; per_layer: one --trace 1 "
                   f"run per workload at seed {seeds[0]}; made by perfbench/spread.py",
            "host": {"nproc": host["nproc"], "python": host["python"]},
            "workloads": out,
        }
        (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One pass of the boundary sweep inside a single long-lived process.

    PYTHONPATH=src python3 perfbench/sweep.py DGL TARGETS.json OUT.jsonl [--spans SPANS.json]
    PYTHONPATH=src python3 perfbench/sweep.py DGL --setup-only
    (either with [--samples SAMPLES.json])

The process imports lietower, builds the presentation P from the .dgl file
through the CLI's parser and validates it at n = 8; that is the set-up.
Then each target t makes three library calls, timed together as one
request, with the free-Lie and d-image caches warm after the first:

    boundary_solve(P, t, Truncation(8))
    boundary_solve(P, t, Truncation(8), exact_in_l=True)
    top_length_obstruction(P, 1, range(1, 8)).excludes(t)

One JSON line per target goes to OUT.jsonl as soon as it finishes, so a
pass killed on timeout still reports the targets it completed.  The
--samples, the calibration kernel (calib.py) runs before lietower is
imported, once before the first target and once after each (outside the
timed request), and at the end of the set-up only mode.  A line carries
the kernel times just before and just after its target, and SAMPLES.json
gets all of them.  With
--spans, the tracer's wrappers are installed after the import and the
spans are written to SPANS.json at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from time import perf_counter

import calib

N = 8


def _word_terms(P, elt) -> list | None:
    if elt is None:
        return None
    return [[[P.gens.names[g] for g in w], str(c)] for w, c in sorted(elt.terms.items())]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("dgl")
    ap.add_argument("targets", nargs="?")
    ap.add_argument("out", nargs="?")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--samples")
    args = ap.parse_args(argv)

    samples: list[float] = []

    def mark():
        if args.samples:
            samples.append(calib.timed_kernel())

    mark()

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        import lietower
        import lietower.cli
    if tracer:
        tracer.install()
    try:
        with open(args.dgl) as fh:
            P = lietower.cli.parse(fh.read()).to_dgl()
        if not lietower.validate(P, lietower.Truncation(N)).ok:
            print(f"{args.dgl} fails validation at n = {N}", file=sys.stderr)
            return 2
        if args.setup_only:
            mark()
            return 0
        with open(args.targets) as fh:
            targets = json.load(fh)
        mark()
        with open(args.out, "w") as out:
            for i, expr in enumerate(targets):
                if tracer:
                    tracer.request = i + 1
                t0 = perf_counter()
                try:
                    t = lietower.parse_element(P.gens, expr)
                    trunc = lietower.boundary_solve(P, t, lietower.Truncation(N))
                    exact = lietower.boundary_solve(P, t, lietower.Truncation(N), exact_in_l=True)
                    excluded = lietower.top_length_obstruction(P, 1, range(1, N)).excludes(t)
                except Exception as err:  # a failed request is counted; the pass goes on
                    rec = {"i": i, "error": f"{type(err).__name__}: {err}"}
                else:
                    rec = {
                        "i": i,
                        "latency_s": perf_counter() - t0,
                        "result": {
                            "truncated": trunc.to_structured(),
                            "exact": exact.to_structured(),
                            "excluded": excluded,
                        },
                        "witness": {
                            "truncated": _word_terms(P, trunc.witness),
                            "exact": _word_terms(P, exact.witness),
                        },
                    }
                mark()
                rec["calib_s"] = samples[-2:]
                out.write(json.dumps(rec) + "\n")
                out.flush()
        return 0
    finally:
        if tracer:
            tracer.dump(args.spans)
        if args.samples:
            with open(args.samples, "w") as fh:
                json.dump(samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

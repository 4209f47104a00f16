"""Span tracer for lietower, installed from outside the package.

`Tracer.install()` replaces the package's public functions and a few
methods with wrappers that record a span per call: name, start, end,
parent span and request id.  Spans stay in memory until `dump()`.  Each
function is patched at every binding of its function object in the loaded
`lietower.*` modules, so aliases (`functors.m_reduce`, the package root)
and self-recursion through a module global (`lie_dim`) are traced too.
Counters (cache hits, useful inserts, matrix nnz, coefficient size, output
bytes) are taken at the same boundaries.

Run as a script it traces one CLI request:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json tower FILE ...

which imports lietower (timed as the span `cli.import`), installs the
wrappers and calls `lietower.cli.main(argv)`; stdout is the CLI's own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

# (module, attribute or Class.method, span name).  The span name's first
# component is the layer the time is charged to.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse", "cli.parse"),
    ("cli", "emit", "cli.emit"),
    ("exprs", "parse_lie", "exprs.parse_lie"),
    ("exprs", "parse_poly", "exprs.parse_poly"),
    ("exprs", "parse_linear", "exprs.parse_linear"),
    ("exprs", "parse_tensor", "exprs.parse_tensor"),
    ("exprs", "format_terms", "exprs.format_terms"),
    ("freelie", "words_of", "freelie.words_of"),
    ("freelie", "lie_dim", "freelie.lie_dim"),
    ("freelie", "lie_basis", "freelie.lie_basis"),
    ("freelie", "eval_bracket_expr", "freelie.eval_bracket_expr"),
    ("dgl", "validate", "dgl.validate"),
    ("dgl", "extend_derivation", "dgl.extend_derivation"),
    ("dgl", "d_image", "dgl.d_image"),
    ("dgl", "DegreeSlice.__init__", "dgl.slice"),
    ("dgl", "DegreeSlice.coords", "dgl.coords"),
    ("dgl", "QuotientComplex.__init__", "dgl.complex"),
    ("dgl", "homology_tower", "dgl.tower"),
    ("dgl", "boundary_solve", "dgl.boundary_solve"),
    ("dgl", "top_length_obstruction", "dgl.obstruction"),
    ("linalg", "IntEchelon.insert", "linalg.insert"),
    ("linalg", "IntEchelon.rref", "linalg.rref"),
    ("linalg", "reduce", "linalg.reduce"),
    ("linalg", "solve_affine", "linalg.solve_affine"),
    ("linalg", "homology_at", "linalg.homology_at"),
    ("linalg", "Subspace.contains", "linalg.subspace_contains"),
    ("linalg", "Subspace.contains_subspace", "linalg.subspace_contains_subspace"),
    ("functors", "duality_check", "functors.duality"),
    ("functors", "bar_lie_coalgebra_E", "functors.bar_E"),
    ("functors", "neisendorfer_model", "functors.model"),
    ("functors", "lemma2_quasi_iso_check", "functors.lemma2"),
    ("pronil", "lemma1_audit", "pronil.audit"),
    ("pronil", "definitional_pronilpotency", "pronil.definitional"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, request]
        self.counters: dict[str, int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int):
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, probe=None):
        enter, exit_ = self._enter, self._exit
        if probe is None:
            def wrapper(*args, **kwargs):
                idx = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = enter(name)
                try:
                    return probe(fn, args, kwargs)
                finally:
                    exit_(idx)
        return functools.wraps(fn)(wrapper)

    # -- patching -----------------------------------------------------------

    def install(self) -> dict[str, list[str]]:
        """Wrap every target; returns span name -> binding sites patched.

        Raises LookupError when a target no longer exists, so a rename in
        the package fails loudly instead of reporting zero time.
        """
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "lietower" or name.startswith("lietower."))
        }
        probes = _probes(self)
        sites: dict[str, list[str]] = {}
        for modname, attr, span_name in TARGETS:
            mod = importlib.import_module(f"lietower.{modname}")
            found: list[str] = []
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise LookupError(f"lietower.{modname}.{attr} not found")
                orig = vars(cls)[meth]
                self._patch(cls, meth, self.wrap(span_name, orig, probes.get(span_name)))
                found.append(f"lietower.{modname}.{attr}")
            else:
                orig = getattr(mod, attr, None)
                if orig is None:
                    raise LookupError(f"lietower.{modname}.{attr} not found")
                wrapper = self.wrap(span_name, orig, probes.get(span_name))
                for other_name, other in sorted(modules.items()):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, wrapper)
                            found.append(f"{other_name}.{key}")
            sites[span_name] = found
        return sites

    def _patch(self, owner, key: str, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh, separators=(",", ":"))


def _probes(t: Tracer) -> dict:
    """Counters taken around individual calls, keyed by span name."""
    freelie = importlib.import_module("lietower.freelie")
    basis_sig = inspect.signature(freelie.lie_basis)

    def lie_basis(fn, args, kwargs):
        key = tuple(basis_sig.bind(*args, **kwargs).args)
        t.count("freelie.lie_basis.hits" if key in freelie._basis_cache else "freelie.lie_basis.misses")
        return fn(*args, **kwargs)

    def d_image(fn, args, kwargs):
        # A miss stores exactly one new entry in P._d_cache.
        cache = args[0]._d_cache
        before = len(cache)
        out = fn(*args, **kwargs)
        t.count("dgl.d_image.misses" if len(cache) > before else "dgl.d_image.hits")
        return out

    def insert(fn, args, kwargs):
        pivot = fn(*args, **kwargs)
        if pivot is not None:
            t.count("linalg.insert.useful")
            row = args[0].rows[pivot]
            t.peak("linalg.max_coeff_bits", max(abs(c).bit_length() for c in row.values()))
        return pivot

    def complex_init(fn, args, kwargs):
        fn(*args, **kwargs)
        t.count("dgl.complex.nnz", sum(len(m.entries) for m in args[0].matrices.values()))

    def emit(fn, args, kwargs):
        out = fn(*args, **kwargs)
        t.count("cli.output_bytes", len(out.encode()))
        return out

    return {
        "freelie.lie_basis": lie_basis,
        "dgl.d_image": d_image,
        "linalg.insert": insert,
        "dgl.complex": complex_init,
        "cli.emit": emit,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import lietower.cli
    tracer.install()
    try:
        return lietower.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

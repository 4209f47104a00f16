"""Pronilpotency audits for finite-type graded Lie algebras.

Input is a bracket table: a basis per degree with structure constants.
The audit runs the two finite conditions -- nilpotency of the degree-0
part, and vanishing of the iterated degree-0 action on each positive
degree -- and combines them into a pronilpotency verdict.  On totally
finite-dimensional input the definitional condition (the algebra equals
the inverse limit of its lower-central-series quotients) is computed
directly and serves as an independent oracle for the audit.

Stagnation converts "undetermined" into "fails" whenever possible: if a
layer satisfies [L_0, S] = S != 0 the series is constant from there on,
which the auditor proves exactly rather than assuming.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .linalg import IntEchelon, InvariantError, _add_term

Vec = dict[int, Fraction]


class TableError(ValueError):
    pass


class IncompleteTableError(TableError):
    pass


class FiniteLieData:
    """Graded Lie algebra on a finite basis with exact structure constants.

    brackets maps (name_a, name_b) to {name: coefficient}; missing pairs are
    zero, and the graded-antisymmetric partner of a stored pair is derived.
    Degrees without basis entries are zero.  `total` declares that the table
    is the whole algebra (no unknown higher degrees).
    """

    def __init__(
        self,
        basis: Iterable[tuple[str, int]],
        brackets: dict[tuple[str, str], dict[str, Fraction]],
        complete_degrees: Optional[dict[int, bool]] = None,
        total: bool = True,
        max_degree: Optional[int] = None,
    ):
        self.names: list[str] = []
        self.degrees: list[int] = []
        for name, degree in basis:
            if name in self.names:
                raise TableError(f"duplicate basis name {name!r}")
            if degree < 0:
                raise TableError(f"negative degree for {name!r}")
            self.names.append(name)
            self.degrees.append(int(degree))
        self.index = {n: i for i, n in enumerate(self.names)}
        self.total = total
        degrees_present = sorted(set(self.degrees))
        self.complete = {d: True for d in degrees_present}
        if complete_degrees:
            self.complete.update(complete_degrees)
        # degrees up to max_degree are covered (no entries there means zero);
        # beyond it a truncated table has no information
        self.max_degree = max(self.degrees, default=0) if max_degree is None else max_degree
        self._table: dict[tuple[int, int], Vec] = {}
        for (a, b), value in brackets.items():
            if a not in self.index or b not in self.index:
                raise TableError(f"bracket [{a}, {b}] names an unknown basis element")
            i, j = self.index[a], self.index[b]
            vec = {}
            for name, c in value.items():
                if name not in self.index:
                    raise TableError(f"bracket [{a}, {b}] lands on unknown name {name!r}")
                c = Fraction(c)
                if c:
                    vec[self.index[name]] = c
            self._set_bracket(i, j, vec)

    def _set_bracket(self, i: int, j: int, vec: Vec):
        want = self.degrees[i] + self.degrees[j]
        for k in vec:
            if self.degrees[k] != want:
                raise TableError(
                    f"bracket [{self.names[i]}, {self.names[j]}] has a component of degree "
                    f"{self.degrees[k]}, expected {want}"
                )
        sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
        if i == j and sign == 1 and vec:
            raise TableError(f"[{self.names[i]}, {self.names[i]}] must vanish in even degree")
        flipped = {k: -sign * c for k, c in vec.items()}
        existing = self._table.get((i, j))
        if existing is not None and existing != vec:
            raise TableError(f"conflicting values for [{self.names[i]}, {self.names[j]}]")
        self._table[(i, j)] = vec
        self._table[(j, i)] = flipped

    @property
    def dim(self) -> int:
        return len(self.names)

    def degrees_present(self) -> list[int]:
        return sorted(set(self.degrees))

    def basis_of_degree(self, d: int) -> list[int]:
        return [i for i, dd in enumerate(self.degrees) if dd == d]

    def is_complete(self, d: int) -> bool:
        return self.complete.get(d, self.total)

    def bracket_basis(self, i: int, j: int) -> Vec:
        got = self._table.get((i, j))
        if got is not None:
            return got
        target = self.degrees[i] + self.degrees[j]
        if target > self.max_degree and not self.total:
            raise IncompleteTableError(
                f"bracket [{self.names[i]}, {self.names[j]}] lands beyond the table"
            )
        return {}

    def bracket(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.bracket_basis(i, j).items():
                    _add_term(out, k, a * b * c)
        return out

    def pretty(self, vec: Vec) -> str:
        if not vec:
            return "0"
        parts = []
        for i in sorted(vec):
            c = vec[i]
            body = self.names[i] if abs(c) == 1 else f"{abs(c)}*{self.names[i]}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def validate(self) -> list[str]:
        """Exact Jacobi on all stored triples; [] when clean.

        Graded antisymmetry needs no pass here: `_set_bracket` stores each
        bracket with its flip -(-1)^{|i||j|} v and raises TableError on a
        conflicting value or an even-degree [a, a] != 0, and `bracket_basis`
        raises IncompleteTableError for [i, j] exactly when it does for
        [j, i], so every table satisfies it by construction.
        """
        problems = []
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    try:
                        lhs = self.bracket({i: Fraction(1)}, self.bracket_basis(j, k))
                        t1 = self.bracket(self.bracket_basis(i, j), {k: Fraction(1)})
                        t2 = self.bracket({j: Fraction(1)}, self.bracket_basis(i, k))
                    except IncompleteTableError:
                        continue
                    sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
                    bad = dict(lhs)
                    for idx, c in t1.items():
                        _add_term(bad, idx, -c)
                    for idx, c in t2.items():
                        _add_term(bad, idx, -sign * c)
                    if bad:
                        problems.append(
                            f"Jacobi fails at ({self.names[i]}, {self.names[j]}, {self.names[k]})"
                        )
        return problems


class Verdict:
    """Outcome of a bounded decision, always carrying its evidence."""

    def __init__(
        self,
        outcome: str,  # "holds" | "fails" | "undetermined"
        bound: int,
        detail: str,
        witness: Optional[Vec] = None,
        witness_text: Optional[str] = None,
        vanishing_index: Optional[int] = None,
    ):
        if outcome not in ("holds", "fails", "undetermined"):
            raise InvariantError(f"unknown verdict outcome {outcome!r}")
        self.outcome = outcome
        self.bound = bound
        self.detail = detail
        self.witness = witness
        self.witness_text = witness_text
        self.vanishing_index = vanishing_index

    def to_structured(self) -> dict:
        return {
            "outcome": self.outcome,
            "bound": self.bound,
            "detail": self.detail,
            "witness": self.witness_text,
            "vanishing_index": self.vanishing_index,
        }

    def __repr__(self):
        extra = f", witness={self.witness_text}" if self.witness_text else ""
        return f"Verdict({self.outcome}{extra}: {self.detail})"


def _span(vectors: Iterable[Vec]) -> list[Vec]:
    ech = IntEchelon()
    for v in vectors:
        ech.insert(v)
    return ech.rref()


def _bracket_span(L: FiniteLieData, left_indices: list[int], layer: list[Vec]) -> list[Vec]:
    out = []
    for i in left_indices:
        for v in layer:
            w = L.bracket({i: Fraction(1)}, v)
            if w:
                out.append(w)
    return _span(out)


def _series(
    L: FiniteLieData, left_indices: list[int], layer: list[Vec], bound: int
) -> tuple[Optional[int], list[Vec]]:
    """Bracket the layer with left_indices until it vanishes, stagnates or
    bound steps have passed.

    Returns (step, layer): the empty layer if the series vanishes at step,
    the stagnant layer if it stagnates from step, and step None otherwise.
    Stagnation [L_0, S] = S is proved exactly: S lies in the span of the
    next layer, which has the same dimension.
    """
    for step in range(2, bound + 2):
        nxt = _bracket_span(L, left_indices, layer)
        if not nxt or (len(nxt) == len(layer) and len(_span(nxt + layer)) == len(nxt)):
            return step, nxt
        layer = nxt
    return None, layer


def nilpotency_of_degree_zero(L: FiniteLieData, bound: int = 32) -> Verdict:
    """Lower central series of the degree-0 part until zero, stagnation or bound."""
    zero_indices = L.basis_of_degree(0)
    if not L.is_complete(0):
        return Verdict("undetermined", bound, "degree 0 is only truncation-accurate")
    layer = _span({i: Fraction(1)} for i in zero_indices)
    if not layer:
        return Verdict("holds", bound, "degree-0 part is zero", vanishing_index=1)
    n, layer = _series(L, zero_indices, layer, bound)
    if n is None:
        return Verdict("undetermined", bound, f"series still nonzero after {bound} steps")
    if not layer:
        return Verdict(
            "holds", bound, f"series vanishes at step {n} (nilpotency class {n - 1})",
            vanishing_index=n,
        )
    return Verdict(
        "fails",
        bound,
        f"series stagnates at dimension {len(layer)} from step {n}: "
        "bracketing with degree 0 reproduces the layer",
        witness=layer[0],
        witness_text=L.pretty(layer[0]),
    )


def g_layer(L: FiniteLieData, p: int, n: int) -> list[Vec]:
    """The n-th layer of the degree-0 action series starting from degree p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    layer = _span({i: Fraction(1)} for i in L.basis_of_degree(p))
    zero_indices = L.basis_of_degree(0)
    for _ in range(n - 1):
        layer = _bracket_span(L, zero_indices, layer)
    return layer


def g_series_vanishing(L: FiniteLieData, p: int, bound: int = 32) -> Verdict:
    """Iterate the degree-0 action on degree p until zero, stagnation or bound."""
    if not (L.is_complete(0) and L.is_complete(p)):
        return Verdict("undetermined", bound, f"degrees 0 or {p} are only truncation-accurate")
    zero_indices = L.basis_of_degree(0)
    layer = _span({i: Fraction(1)} for i in L.basis_of_degree(p))
    if not layer:
        return Verdict("holds", bound, f"degree-{p} part is zero", vanishing_index=1)
    n, layer = _series(L, zero_indices, layer, bound)
    if n is None:
        return Verdict("undetermined", bound, f"action series on degree {p} nonzero after {bound} steps")
    if not layer:
        return Verdict(
            "holds", bound, f"action series on degree {p} vanishes at step {n}",
            vanishing_index=n,
        )
    return Verdict(
        "fails",
        bound,
        f"action series on degree {p} stagnates at dimension {len(layer)} from step {n}",
        witness=layer[0],
        witness_text=L.pretty(layer[0]),
    )


class AuditReport:
    def __init__(self, condition_a: Verdict, condition_b: dict[int, Verdict], combined: Verdict):
        self.condition_a = condition_a
        self.condition_b = condition_b
        self.combined = combined

    def to_structured(self) -> dict:
        return {
            "condition_a": self.condition_a.to_structured(),
            "condition_b": {str(p): v.to_structured() for p, v in sorted(self.condition_b.items())},
            "combined": self.combined.to_structured(),
        }

    def to_text(self) -> str:
        lines = [f"(a) degree-0 nilpotency: {self.condition_a!r}"]
        for p, v in sorted(self.condition_b.items()):
            lines.append(f"(b) action series on degree {p}: {v!r}")
        lines.append(f"combined: {self.combined!r}")
        return "\n".join(lines)


def lemma1_audit(L: FiniteLieData, bound: int = 32) -> AuditReport:
    """Pronilpotency evidence: degree-0 nilpotency plus vanishing action series.

    The combined verdict holds exactly when both conditions hold within the
    bound; any failure is carried with its witness.
    """
    a = nilpotency_of_degree_zero(L, bound)
    b: dict[int, Verdict] = {}
    for p in L.degrees_present():
        if p > 0:
            b[p] = g_series_vanishing(L, p, bound)
    verdicts = [a] + list(b.values())
    if any(v.outcome == "fails" for v in verdicts):
        first = next(v for v in verdicts if v.outcome == "fails")
        combined = Verdict(
            "fails", bound,
            "not pronilpotent: " + ("condition (a) fails" if a.outcome == "fails" else "a condition (b) fails"),
            witness=first.witness, witness_text=first.witness_text,
        )
    elif any(v.outcome == "undetermined" for v in verdicts):
        combined = Verdict("undetermined", bound, "some condition undetermined within the bound")
    else:
        combined = Verdict("holds", bound, "pronilpotent-evidence: (a) and (b) hold within the bound")
    return AuditReport(a, b, combined)


def definitional_pronilpotency(L: FiniteLieData, bound: int = 64) -> Verdict:
    """Direct lower-central-series check on totally finite input.

    Computes L^p until stabilization; the algebra equals the inverse limit of
    its lower-central-series quotients iff the stable part is zero (per
    degree the quotients then stabilize to the algebra itself).  Used as the
    independent oracle against the two-condition audit.
    """
    if not L.total or not all(L.is_complete(d) for d in L.degrees_present()):
        raise IncompleteTableError("definitional check needs a totally finite table")
    all_indices = list(range(L.dim))
    p, layer = _series(L, all_indices, _span({i: Fraction(1)} for i in all_indices), bound)
    if p is None:
        return Verdict("undetermined", bound, f"series still moving after {bound} steps")
    if not layer:
        return Verdict(
            "holds", bound,
            f"lower central series vanishes at step {p}; quotients stabilize degreewise",
            vanishing_index=p,
        )
    return Verdict(
        "fails", bound,
        f"lower central series stabilizes at dimension {len(layer)} > 0",
        witness=layer[0], witness_text=L.pretty(layer[0]),
    )

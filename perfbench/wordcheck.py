"""Word-level derivation evaluator, independent of lietower.

Elements of the free graded Lie algebra are held as polynomials in the
tensor algebra: dicts from words (tuples of generator names) to Fractions.
Bracket expressions are expanded with the graded commutator
[a, b] = ab - (-1)^{|a||b|} ba, and the differential acts on words as a
degree -1 derivation with the Koszul sign of the prefix it moves past.
The benchmark uses this to re-verify boundary witnesses without going
through the solver it measures.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict  # tuple[str, ...] -> Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")


class Presentation:
    """Generators with degrees and the differential on generators."""

    def __init__(self, degrees: dict[str, int], d: dict[str, Poly]):
        self.degrees = degrees
        self.d = d

    @classmethod
    def from_dgl_text(cls, text: str) -> "Presentation":
        degrees: dict[str, int] = {}
        d_text: dict[str, str] = {}
        section = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("kind:"):
                continue
            if line.startswith("[") and "=" not in line:
                section = line.strip("[]").strip()
            elif section == "generators":
                name, _, deg = line.partition(":")
                degrees[name.strip()] = int(deg)
            elif section == "differential":
                head, _, rhs = line.partition("=")
                d_text[head.strip()[2:].strip()] = rhs
        pres = cls(degrees, {})
        pres.d = {name: pres.parse(rhs) for name, rhs in d_text.items()}
        return pres

    def word_degree(self, word: tuple) -> int:
        return sum(self.degrees[g] for g in word)

    # -- bracket expressions --------------------------------------------------

    def parse(self, text: str) -> Poly:
        tokens = [m.group(m.lastindex) for m in _TOKEN.finditer(text) if m.lastindex]
        pos = 0

        def peek():
            return tokens[pos] if pos < len(tokens) else None

        def take(expected=None):
            nonlocal pos
            tok = peek()
            if tok is None or (expected is not None and tok != expected):
                raise ValueError(f"expected {expected!r} at token {pos} of {text!r}")
            pos += 1
            return tok

        def expr() -> Poly:
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take()
            acc = scale(term(), sign)
            while peek() in ("+", "-"):
                sign = 1 if take() == "+" else -1
                acc = add(acc, term(), sign)
            return acc

        def term() -> Poly:
            if peek() is not None and peek().isdigit():
                coeff = Fraction(int(take()))
                if peek() == "/":
                    take()
                    coeff /= int(take())
                take("*")
                return scale(atom(), coeff)
            return atom()

        def atom() -> Poly:
            tok = take()
            if tok == "[":
                left = expr()
                take(",")
                right = expr()
                take("]")
                return self.bracket(left, right)
            if tok == "(":
                inner = expr()
                take(")")
                return inner
            if tok not in self.degrees:
                raise ValueError(f"unknown generator {tok!r} in {text!r}")
            return {(tok,): Fraction(1)}

        out = expr()
        if peek() is not None:
            raise ValueError(f"trailing input in {text!r}")
        return out

    def bracket(self, a: Poly, b: Poly) -> Poly:
        out: Poly = {}
        for u, cu in a.items():
            for v, cv in b.items():
                sign = -1 if (self.word_degree(u) * self.word_degree(v)) % 2 else 1
                _acc(out, u + v, cu * cv)
                _acc(out, v + u, -sign * cu * cv)
        return out

    # -- the derivation -------------------------------------------------------

    def differential(self, p: Poly) -> Poly:
        out: Poly = {}
        for word, coeff in p.items():
            prefix = 0
            for i, g in enumerate(word):
                sign = -1 if prefix % 2 else 1
                for dw, dc in self.d.get(g, {}).items():
                    _acc(out, word[:i] + dw + word[i + 1 :], sign * coeff * dc)
                prefix += self.degrees[g]
        return out


def _acc(out: Poly, word: tuple, coeff: Fraction):
    s = out.get(word, 0) + coeff
    if s:
        out[word] = s
    else:
        out.pop(word, None)


def add(a: Poly, b: Poly, sign=1) -> Poly:
    out = dict(a)
    for w, c in b.items():
        _acc(out, w, sign * c)
    return out


def scale(a: Poly, c) -> Poly:
    return {w: c * v for w, v in a.items()} if c else {}


def truncate(p: Poly, n: int) -> Poly:
    """Keep the words of length < n (the image in L / L^n)."""
    return {w: c for w, c in p.items() if len(w) < n}


def witness_ok(pres: Presentation, witness: Poly, target: Poly, n: int | None) -> bool:
    """d(witness) == target, exactly (n None) or in L / L^n."""
    image = pres.differential(witness)
    if n is None:
        return image == target
    return truncate(image, n) == truncate(target, n)

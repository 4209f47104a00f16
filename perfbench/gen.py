"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed and returns text only: the program
under test receives the generated files and expressions, never the seed.
The same seed always gives the same inputs (string seeds hash with SHA-512
inside `random.Random`, which is stable across runs and hash seeds).
"""

from __future__ import annotations

import random

_DZ_COEFFS = ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "-3/2")
_TARGET_COEFFS = (1, -1, 2, -2, 3, -3)


def seeded_dgl(seed: int) -> str:
    """A presentation from the stubborn cycle's family.

    Generators x, y of degree 0 and z of degree 1; d z is a Lie polynomial
    in x and y with one term of word length 1 (x or y) and one of word
    length 3 (a standard Lyndon bracketing), each with a small nonzero
    rational coefficient.  d vanishes on x and y, so d^2 = 0 holds by
    degree.  The shape is fixed so that every seed costs about the same
    (about as much as the stubborn cycle's own n <= 7 tower); the seed picks
    the generator, the bracket and the coefficients.
    """
    rng = random.Random(f"lietower-bench/dgl/{seed}")
    terms = [
        f"{rng.choice(_DZ_COEFFS)}*{rng.choice(('x', 'y'))}",
        f"{rng.choice(_DZ_COEFFS)}*{rng.choice(('[x, [x, y]]', '[[x, y], y]'))}",
    ]
    dz = " + ".join(terms).replace("+ -", "- ")
    return (
        f"# benchmark input drawn from seed {seed}\n"
        "kind: dgl\n\n[generators]\nx : 0\ny : 0\nz : 1\n\n"
        f"[differential]\nd z = {dz}\n"
    )


def lyndon_words(letters: str, max_length: int) -> list[str]:
    """All Lyndon words over the ordered alphabet up to max_length (Duval)."""
    out = []
    w = [-1]
    k = len(letters)
    while w:
        w[-1] += 1
        out.append("".join(letters[i] for i in w))
        m = len(w)
        while len(w) < max_length:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
    return out


def _is_lyndon(word: str) -> bool:
    return all(word < word[i:] for i in range(1, len(word)))


def _split(word: str) -> int:
    """Standard factorization w = uv of a Lyndon word: v is its longest
    proper Lyndon suffix."""
    return next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))


def standard_bracketing(word: str) -> str:
    """Bracket expression [P(u), P(v)] of a Lyndon word w = uv."""
    if len(word) == 1:
        return word
    i = _split(word)
    return f"[{standard_bracketing(word[:i])}, {standard_bracketing(word[i:])}]"


def _quotient_image(word: str) -> tuple[int, int]:
    """Image (a, b) = a x + b y of a Lyndon basis element of L_0 in the
    quotient of L_0 by the ideal generated by d z = x - [y, x].

    That quotient is the 2-dimensional algebra with [y, x] = x.  A target t
    with image (a, b) is a boundary in every L / L^n exactly when b = 0
    (x = dz + [y, x] = d(z + [y, z]) + [y, [y, x]] = ...), and a boundary in
    L itself exactly when a = b = 0.
    """
    if len(word) == 1:
        return (1, 0) if word == "x" else (0, 1)
    i = _split(word)
    (a1, b1), (a2, b2) = _quotient_image(word[:i]), _quotient_image(word[i:])
    return b1 * a2 - a1 * b2, 0


_TARGET_BASIS = [(standard_bracketing(w), _quotient_image(w)) for w in lyndon_words("xy", 6)]
# boundary in L, boundary only in the truncations L / L^n, boundary nowhere
TARGET_CLASSES = ("exact", "truncated", "none")


def sweep_targets(seed: int, count: int) -> list[str]:
    """Degree-0 boundary targets for the stubborn cycle: 1-3 Lyndon basis
    elements of word length <= 6 with small integer coefficients.

    Targets are drawn until each class of TARGET_CLASSES holds a third of
    them, and come out in round-robin class order, so every pass mixes the
    three outcomes (SAT/SAT, SAT/UNSAT, UNSAT/UNSAT) in the same proportion
    and starts, cold, on an exact one.  Solve time depends mostly on the
    outcome, so this keeps the seed from skewing the pass.
    """
    rng = random.Random(f"lietower-bench/targets/{seed}")
    drawn: dict[str, list[str]] = {c: [] for c in TARGET_CLASSES}
    quota = -(-count // len(TARGET_CLASSES))
    while any(len(v) < quota for v in drawn.values()):
        picks = rng.sample(_TARGET_BASIS, rng.randint(1, 3))
        coeffs = [rng.choice(_TARGET_COEFFS) for _ in picks]
        a = sum(c * img[0] for c, (_, img) in zip(coeffs, picks))
        b = sum(c * img[1] for c, (_, img) in zip(coeffs, picks))
        cls = "none" if b else "truncated" if a else "exact"
        expr = " + ".join(f"{c}*{text}" for c, (text, _) in zip(coeffs, picks)).replace("+ -", "- ")
        if len(drawn[cls]) < quota and expr not in drawn[cls]:
            drawn[cls].append(expr)
    rounds = zip(*(drawn[c] for c in TARGET_CLASSES))
    return [t for r in rounds for t in r][:count]

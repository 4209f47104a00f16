"""File formats, command dispatch and report emission.

The input format is line-oriented with bracketed section headers:

    kind: dgl | sullivan | coalgebra | lie-table
    [generators]
    x : 0
    [differential]
    d z = x - [y, x]          # Lie expressions for dgl files
    d e3 = e2 * e2            # polynomial expressions for sullivan files
    [diagonal]
    D c4 = c2 (x) c2          # coalgebra files
    [brackets]
    [y, x] = x                # lie-table files
    [filtration]
    V(0) = x, y               # optional sullivan witness
    [incomplete]
    2                         # lie-table degrees that are truncation-limited

Comments run from '#' to end of line.  Rationals are written p/q.  Exit
codes: 0 success, 2 parse or validation failure, 3 computation window
insufficient (a `TruncationError` or `WindowError`, chosen by type), 4
internal invariant breach (always a bug: an `InvariantError`, a
`LinalgError` or a `NameError_`).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import exprs
from .dgl import (
    DglPresentation,
    DglError,
    TruncationError,
    Truncation,
    UnsupportedModeError,
    boundary_solve,
    h0_table_from_tower,
    homology_tower,
    exact_homology,
    top_length_obstruction,
    validate as dgl_validate,
)
from .freelie import GeneratorSet, NameError_, eval_bracket_expr
from .functors import (
    Cdgc,
    FunctorError,
    SullivanAlgebra,
    WindowError,
    duality_check,
    lemma2_quasi_iso_check,
    minimality_check,
    neisendorfer_model,
    poly_from_terms,
)
from .linalg import InvariantError, LinalgError
from .pronil import FiniteLieData, TableError, definitional_pronilpotency, lemma1_audit

KINDS = ("dgl", "sullivan", "coalgebra", "lie-table")
SECTIONS = {
    "dgl": ("generators", "differential"),
    "sullivan": ("generators", "differential", "filtration"),
    "coalgebra": ("generators", "differential", "diagonal"),
    "lie-table": ("generators", "brackets", "incomplete"),
}
COMMANDS = ("validate", "tower", "homology", "pronil", "neisendorfer", "duality", "lemma2", "boundary")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_WINDOW = 3
EXIT_BUG = 4


class RunConfig:
    def __init__(
        self,
        n_max: int = 6,
        d_max: int = 8,
        degrees: tuple[int, int] = (0, 1),
        tower: Optional[tuple[int, int]] = None,
        stab_suffix: int = 3,
        fmt: str = "text",
        target: Optional[str] = None,
        exact: bool = False,
        certify: Optional[tuple[int, int]] = None,
    ):
        for flag, value, least in (("--max-length", n_max, 2), ("--max-degree", d_max, 1),
                                   ("--stab-suffix", stab_suffix, 1)):
            if value < least:
                raise exprs.ParseError(f"{flag} must be >= {least}, got {value}", 0, 0)
        self.n_max = n_max
        self.d_max = d_max
        if degrees[0] > degrees[1]:
            raise exprs.ParseError(f"degree range {degrees} needs A <= B", 0, 0)
        self.degrees = degrees
        self.tower = tower if tower is not None else (2, n_max)
        if not (2 <= self.tower[0] <= self.tower[1] <= n_max):
            raise exprs.ParseError(f"tower range {self.tower} not inside [2, {n_max}]", 0, 0)
        self.stab_suffix = stab_suffix
        self.fmt = fmt
        self.target = target
        self.exact = exact
        if certify is not None and not 1 <= certify[0] <= certify[1]:
            raise exprs.ParseError(f"certify-lengths range {certify} needs 1 <= A <= B", 0, 0)
        self.certify = certify


class InputDocument:
    def __init__(self, kind: str, gens: list[tuple[str, int]], sections: dict):
        self.kind = kind
        self.gens = gens
        self.sections = sections

    def __eq__(self, other):
        return (
            isinstance(other, InputDocument)
            and self.kind == other.kind
            and self.gens == other.gens
            and self.sections == other.sections
        )

    # -- conversions --------------------------------------------------------

    def to_dgl(self) -> DglPresentation:
        gens = GeneratorSet.from_pairs(self.gens)
        diffs = {
            name: eval_bracket_expr(gens, terms)
            for name, terms in self.sections.get("differential", [])
        }
        return DglPresentation(gens, diffs)

    def to_sullivan(self) -> SullivanAlgebra:
        gens = GeneratorSet.from_pairs(self.gens)
        d_poly = {
            name: poly_from_terms(gens, terms)
            for name, terms in self.sections.get("differential", [])
        }
        filtration = self.sections.get("filtration")
        stages = [names for _, names in filtration] if filtration else None
        return SullivanAlgebra(gens, d_poly, stages)

    def to_coalgebra(self) -> Cdgc:
        names = [n for n, _ in self.gens]
        degrees = [d for _, d in self.gens]
        index = {n: i for i, n in enumerate(names)}
        delta = {}
        for name, terms in self.sections.get("differential", []):
            row = {}
            for coeff, node in terms:
                row[index[node.name]] = row.get(index[node.name], Fraction(0)) + coeff
            if row:
                delta[index[name]] = row
        diag = {}
        for name, terms in self.sections.get("diagonal", []):
            row = {}
            for coeff, node in terms:
                key = (index[node.left], index[node.right])
                row[key] = row.get(key, Fraction(0)) + coeff
            if row:
                diag[index[name]] = row
        return Cdgc(names, degrees, delta, diag)

    def to_lie_table(self) -> FiniteLieData:
        incomplete = {d for (d,) in self.sections.get("incomplete", [])}
        brackets = {}
        for (a, b), terms in self.sections.get("brackets", []):
            value = {}
            for coeff, node in terms:
                value[node.name] = value.get(node.name, Fraction(0)) + coeff
            brackets[(a, b)] = value
        complete = {d: d not in incomplete for _, d in self.gens}
        return FiniteLieData(self.gens, brackets, complete_degrees=complete, total=not incomplete)

    # -- canonical printing ---------------------------------------------------

    def pretty(self) -> str:
        lines = [f"kind: {self.kind}", "", "[generators]"]
        for name, deg in self.gens:
            lines.append(f"{name} : {deg}")
        if "differential" in self.sections:
            lines += ["", "[differential]"]
            for name, terms in self.sections["differential"]:
                lines.append(f"d {name} = {exprs.format_terms(terms)}")
        if "diagonal" in self.sections:
            lines += ["", "[diagonal]"]
            for name, terms in self.sections["diagonal"]:
                lines.append(f"D {name} = {exprs.format_terms(terms)}")
        if "brackets" in self.sections:
            lines += ["", "[brackets]"]
            for (a, b), terms in self.sections["brackets"]:
                lines.append(f"[{a}, {b}] = {exprs.format_terms(terms)}")
        if "filtration" in self.sections:
            lines += ["", "[filtration]"]
            for n, names in self.sections["filtration"]:
                lines.append(f"V({n}) = " + ", ".join(names))
        if "incomplete" in self.sections:
            lines += ["", "[incomplete]"]
            for (d,) in self.sections["incomplete"]:
                lines.append(str(d))
        return "\n".join(lines) + "\n"


def parse(text: str) -> InputDocument:
    """Parse a document; raises exprs.ParseError with line/column on failure."""
    kind = None
    gens: list[tuple[str, int]] = []
    sections: dict = {}
    section = None
    seen_names: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is None:
            if not line.startswith("kind:"):
                raise exprs.ParseError("expected 'kind: <dgl|sullivan|coalgebra|lie-table>'", lineno, 1)
            kind = line[5:].strip()
            if kind not in KINDS:
                raise exprs.ParseError(f"unknown kind {kind!r}", lineno, 7)
            continue
        if line.startswith("[") and "=" not in line:
            name = line.strip("[]").strip()
            if name not in SECTIONS[kind]:
                raise exprs.ParseError(f"unknown section [{name}] for kind {kind}", lineno, 1)
            if name in sections or (name == "generators" and gens):
                raise exprs.ParseError(f"duplicate section [{name}]", lineno, 1)
            section = name
            if name != "generators":
                sections[name] = []
            continue
        if section is None:
            raise exprs.ParseError("content before any section", lineno, 1)
        if section == "generators":
            if ":" not in line:
                raise exprs.ParseError("expected 'name : degree'", lineno, 1)
            name, _, deg = line.partition(":")
            name = name.strip()
            if not name.isidentifier():
                raise exprs.ParseError(f"bad generator name {name!r}", lineno, 1)
            if name in seen_names:
                raise exprs.ParseError(f"duplicate name {name!r}", lineno, 1)
            try:
                degree = int(deg.strip())
            except ValueError:
                raise exprs.ParseError(f"bad degree {deg.strip()!r}", lineno, line.index(":") + 2)
            if degree < 0:
                raise exprs.ParseError(f"negative degree {degree} for {name!r}", lineno,
                                       line.index(":") + 2, "a degree >= 0")
            seen_names.add(name)
            gens.append((name, degree))
        elif section == "differential":
            if not line.startswith("d ") or "=" not in line:
                raise exprs.ParseError("expected 'd <name> = <expression>'", lineno, 1)
            head, _, rhs = line.partition("=")
            name = head[2:].strip()
            if name not in seen_names:
                raise exprs.ParseError(f"unknown name {name!r}", lineno, 3)
            if any(name == n for n, _ in sections["differential"]):
                raise exprs.ParseError(f"duplicate differential for {name!r}", lineno, 3)
            mode = {"dgl": exprs.parse_lie, "sullivan": exprs.parse_poly, "coalgebra": exprs.parse_linear}[kind]
            terms = mode(rhs, known=seen_names, base_line=lineno)
            sections["differential"].append((name, terms))
        elif section == "diagonal":
            if not line.startswith("D ") or "=" not in line:
                raise exprs.ParseError("expected 'D <name> = <tensor expression>'", lineno, 1)
            head, _, rhs = line.partition("=")
            name = head[2:].strip()
            if name not in seen_names:
                raise exprs.ParseError(f"unknown name {name!r}", lineno, 3)
            terms = exprs.parse_tensor(rhs, known=seen_names, base_line=lineno)
            sections["diagonal"].append((name, terms))
        elif section == "brackets":
            if not line.startswith("[") or "=" not in line:
                raise exprs.ParseError("expected '[a, b] = <expression>'", lineno, 1)
            head, _, rhs = line.partition("=")
            head = head.strip()
            if not head.endswith("]"):
                raise exprs.ParseError("expected '[a, b]' on the left", lineno, 1)
            inner = head[1:-1]
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 2:
                raise exprs.ParseError("expected exactly two names in the bracket", lineno, 1)
            for p in parts:
                if p not in seen_names:
                    raise exprs.ParseError(f"unknown name {p!r}", lineno, 2)
            terms = exprs.parse_linear(rhs, known=seen_names, base_line=lineno)
            sections["brackets"].append(((parts[0], parts[1]), terms))
        elif section == "filtration":
            if not line.startswith("V(") or "=" not in line:
                raise exprs.ParseError("expected 'V(n) = name, name, ...'", lineno, 1)
            head, _, rhs = line.partition("=")
            try:
                stage = int(head.strip()[2:-1])
            except ValueError:
                raise exprs.ParseError("bad filtration stage", lineno, 3)
            names = [p.strip() for p in rhs.split(",") if p.strip()]
            for p in names:
                if p not in seen_names:
                    raise exprs.ParseError(f"unknown name {p!r}", lineno, 1)
            sections["filtration"].append((stage, names))
        elif section == "incomplete":
            try:
                sections["incomplete"].append((int(line),))
            except ValueError:
                raise exprs.ParseError(f"expected a degree, found {line!r}", lineno, 1)
    if kind is None:
        raise exprs.ParseError("empty document", 1, 1)
    if not gens:
        raise exprs.ParseError("no generators", 1, 1)
    return InputDocument(kind, gens, sections)


# ---------------------------------------------------------------------------
# structured output


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit(payload: dict, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n"
    return payload["text"] + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _require_kind(doc: InputDocument, *kinds: str):
    if doc.kind not in kinds:
        raise exprs.ParseError(f"command needs a {' or '.join(kinds)} document, got {doc.kind}", 0, 0)


def cmd_validate(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    if doc.kind == "dgl":
        P = doc.to_dgl()
        rep = dgl_validate(P, Truncation(cfg.n_max, cfg.d_max))
        summary = ", ".join(f"{n}:{d}" for n, d in doc.gens)
        text = f"dgl on {summary}\n{rep.to_text()}"
        return (EXIT_OK if rep.ok else EXIT_INVALID), {"text": text, "report": rep.to_structured()}
    if doc.kind == "sullivan":
        S = doc.to_sullivan()
        rep = minimality_check(S)
        window_ok = S.window(cfg.d_max + 1).d_squared_ok()
        ok = rep.ok and window_ok
        text = f"sullivan algebra: {'minimal' if rep.ok else 'NOT minimal'} ({rep.reason}); " \
               f"d^2 {'= 0' if window_ok else '!= 0'} in the window"
        return (EXIT_OK if ok else EXIT_INVALID), {
            "text": text,
            "report": {"minimal": rep.ok, "reason": rep.reason, "d_squared_ok": window_ok},
        }
    if doc.kind == "coalgebra":
        C = doc.to_coalgebra()
        problems = C.validate()
        text = "coalgebra axioms hold" if not problems else "INVALID:\n  " + "\n  ".join(problems)
        return (EXIT_OK if not problems else EXIT_INVALID), {
            "text": text,
            "report": {"ok": not problems, "problems": problems},
        }
    table = doc.to_lie_table()
    problems = table.validate()
    text = "bracket table valid" if not problems else "INVALID:\n  " + "\n  ".join(problems)
    return (EXIT_OK if not problems else EXIT_INVALID), {
        "text": text,
        "report": {"ok": not problems, "problems": problems},
    }


def _tower_payload(P: DglPresentation, cfg: RunConfig) -> dict:
    lo, hi = cfg.degrees
    reports = []
    texts = []
    for q in range(lo, hi + 1):
        rep = homology_tower(P, q, range(cfg.tower[0], cfg.tower[1] + 1), cfg.stab_suffix)
        reports.append(rep.to_structured())
        texts.append(rep.to_text())
    return {"text": "\n".join(texts), "reports": reports}


def cmd_tower(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "dgl")
    P = doc.to_dgl()
    rep = dgl_validate(P, Truncation(cfg.n_max, cfg.d_max))
    if not rep.ok:
        return EXIT_INVALID, {"text": "input fails validation:\n" + rep.to_text()}
    return EXIT_OK, _tower_payload(P, cfg)


def cmd_homology(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "dgl")
    P = doc.to_dgl()
    rep = dgl_validate(P, Truncation(cfg.n_max, cfg.d_max))
    if not rep.ok:
        return EXIT_INVALID, {"text": "input fails validation:\n" + rep.to_text()}
    lo, hi = cfg.degrees
    rows = []
    texts = []
    for q in range(lo, hi + 1):
        dim, reps = exact_homology(P, q)
        rows.append({"degree": q, "dim_H": dim, "representatives": [r.pretty() for r in reps]})
        texts.append(f"H_{q} has dimension {dim}" + (f", classes: {', '.join(r.pretty() for r in reps)}" if reps else ""))
    return EXIT_OK, {"text": "\n".join(texts), "rows": rows}


def cmd_pronil(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "lie-table")
    table = doc.to_lie_table()
    problems = table.validate()
    if problems:
        return EXIT_INVALID, {"text": "table invalid:\n  " + "\n  ".join(problems)}
    audit = lemma1_audit(table, bound=cfg.n_max * 4)
    payload = {"text": audit.to_text(), "audit": audit.to_structured()}
    if table.total:
        oracle = definitional_pronilpotency(table)
        payload["definitional"] = oracle.to_structured()
        payload["text"] += f"\ndefinitional check: {oracle!r}"
    return EXIT_OK, payload


def cmd_neisendorfer(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "sullivan")
    S = doc.to_sullivan()
    model = neisendorfer_model(S, cfg.d_max + 1)
    model_doc = InputDocument(
        "dgl",
        list(zip(model.gens.names, model.gens.degrees)),
        {
            "differential": [
                (name, _elt_expr(model, name))
                for name in model.gens.names
                if name in model.diff
            ]
        },
    )
    payload = {"text": "model:\n" + model_doc.pretty(), "model": model_doc.pretty()}
    tower = _tower_payload(model, cfg)
    payload["text"] += "\n" + tower["text"]
    payload["reports"] = tower["reports"]
    table, _ = h0_table_from_tower(model, cfg.tower[1])
    audit = lemma1_audit(table)
    payload["audit"] = audit.to_structured()
    payload["text"] += "\naudit of the stabilized degree-0 table:\n" + audit.to_text()
    return EXIT_OK, payload


def _elt_expr(P: DglPresentation, name: str) -> exprs.Terms:
    """Render a differential value as parsed bracket-expression terms.

    Tensor words of a derivation image are sums of left-normed bracket
    monomials only when the value was built from brackets; rather than
    re-bracketing, emit the value through the Dynkin certificate: each
    length-n component w equals dynkin(w)/n."""
    val = P.diff[name]
    acc: dict = {}
    for n, comp in val.by_length().items():
        if n == 1:
            for w, c in comp.terms.items():
                node = exprs.Gen(P.gens.names[w[0]])
                acc[node] = acc.get(node, Fraction(0)) + c
            continue
        for w, c in comp.terms.items():
            node = _word_bracket_node(P.gens, w)
            acc[node] = acc.get(node, Fraction(0)) + c / n
    return tuple((c, node) for node, c in acc.items() if c)


def _word_bracket_node(gens: GeneratorSet, word: tuple) -> exprs.Bracket:
    """Left-normed bracket AST for a word (the Dynkin image of the word)."""
    node = exprs.Gen(gens.names[word[-1]])
    for i in range(len(word) - 2, -1, -1):
        left = ((Fraction(1), exprs.Gen(gens.names[word[i]])),)
        node = exprs.Bracket(left, ((Fraction(1), node),))
    return node


def cmd_duality(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "sullivan")
    S = doc.to_sullivan()
    rep = duality_check(S, cfg.d_max, min(cfg.n_max, 4))
    return (EXIT_OK if rep.ok else EXIT_INVALID), {"text": rep.to_text(), "report": rep.to_structured()}


def cmd_lemma2(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "sullivan")
    S = doc.to_sullivan()
    lo, hi = max(cfg.degrees[0], 1), cfg.degrees[1]
    if lo > hi:
        raise exprs.ParseError(f"lemma2 needs a degree >= 1 in --degrees, got {cfg.degrees}", 0, 0)
    rep = lemma2_quasi_iso_check(S, lo, hi)
    return (EXIT_OK if rep.ok else EXIT_INVALID), {"text": rep.to_text(), "report": rep.to_structured()}


def cmd_boundary(doc: InputDocument, cfg: RunConfig) -> tuple[int, dict]:
    _require_kind(doc, "dgl")
    P = doc.to_dgl()
    rep = dgl_validate(P, Truncation(cfg.n_max, cfg.d_max))
    if not rep.ok:
        return EXIT_INVALID, {"text": "input fails validation:\n" + rep.to_text()}
    if not cfg.target:
        raise exprs.ParseError("boundary needs --target EXPR", 0, 0)
    target = eval_bracket_expr(P.gens, exprs.parse_lie(cfg.target, known=set(P.gens.names)))
    res = boundary_solve(P, target, Truncation(cfg.n_max, cfg.d_max), exact_in_l=cfg.exact)
    payload = {"text": repr(res), "result": res.to_structured()}
    if cfg.certify:
        lo, hi = cfg.certify
        degree = (target.homogeneous_degree() or 0) + 1
        rep = top_length_obstruction(P, degree, range(lo, hi + 1))
        payload["obstruction"] = rep.to_structured()
        payload["text"] += "\n" + rep.to_text()
        excluded = rep.excludes(target)
        payload["no_witness_within_bound"] = excluded
        payload["text"] += (
            f"\nno witness of top length <= {rep.bound}: {'certified' if excluded else 'NOT excluded'}"
        )
    return EXIT_OK, payload


DISPATCH = {
    "validate": cmd_validate,
    "tower": cmd_tower,
    "homology": cmd_homology,
    "pronil": cmd_pronil,
    "neisendorfer": cmd_neisendorfer,
    "duality": cmd_duality,
    "lemma2": cmd_lemma2,
    "boundary": cmd_boundary,
}


def run(command: str, doc: InputDocument, cfg: RunConfig) -> tuple[int, str]:
    """Dispatch a command; returns (exit code, rendered output)."""
    if command not in DISPATCH:
        raise exprs.ParseError(f"unknown command {command!r}", 0, 0)
    try:
        code, payload = DISPATCH[command](doc, cfg)
    except (exprs.ParseError, DglError, FunctorError, TableError) as err:
        if isinstance(err, (TruncationError, WindowError)):
            return EXIT_WINDOW, f"window insufficient: {err}\n"
        if isinstance(err, UnsupportedModeError):
            return EXIT_INVALID, f"unsupported mode: {err}\n"
        return EXIT_INVALID, f"error: {err}\n"
    except (InvariantError, LinalgError, NameError_) as err:
        return EXIT_BUG, f"internal invariant breach: {err}\n"
    payload.setdefault("command", command)
    return code, emit(payload, cfg.fmt)


def _parse_range(flag: str, text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise exprs.ParseError(f"bad {flag} range {text!r}", 0, 0, "integers A..B") from None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lietower",
        description="exact homology towers, completions and pronilpotency audits "
        "for differential graded Lie algebras over the rationals",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("path", help="input file, or - for standard input")
    parser.add_argument("--max-length", type=int, default=6,
                        help="retain word lengths below this; duality checks word lengths "
                        "1..min(MAX_LENGTH, 4) and degrees 0..MAX_DEGREE, both inclusive")
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--degrees", type=str, default="0..1", help="degree window A..B")
    parser.add_argument("--tower", type=str, default=None, help="tower range A..B")
    parser.add_argument("--stab-suffix", type=int, default=3)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--target", type=str, default=None, help="target expression for boundary")
    parser.add_argument("--exact", action="store_true", help="solve in the free algebra itself")
    parser.add_argument("--certify-lengths", type=str, default=None, help="obstruction range A..B")
    args = parser.parse_args(argv)

    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return EXIT_INVALID
    try:
        doc = parse(text)
        cfg = RunConfig(
            n_max=args.max_length,
            d_max=args.max_degree,
            degrees=_parse_range("--degrees", args.degrees),
            tower=_parse_range("--tower", args.tower) if args.tower else None,
            stab_suffix=args.stab_suffix,
            fmt=args.format,
            target=args.target,
            exact=args.exact,
            certify=(
                _parse_range("--certify-lengths", args.certify_lengths)
                if args.certify_lengths
                else None
            ),
        )
    except exprs.ParseError as err:
        print(f"parse error at {err.line}:{err.col}: {err.message}"
              + (f" (expected {err.expected})" if err.expected else ""), file=sys.stderr)
        return EXIT_INVALID
    code, output = run(args.command, doc, cfg)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as err:
            print(f"cannot write output: {err}", file=sys.stderr)
            return EXIT_INVALID
    else:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Expression grammar shared between the algebra modules and the file formats.

    expr     := ['-'] term (('+'|'-') term)*
    term     := [rational '*'] atom ('*' atom)*      (products only in poly mode)
    atom     := ident | '[' expr ',' expr ']' | '(' expr ')'
    rational := int ['/' positive-int]

Whitespace is insignificant.  Bracket atoms are only admitted in Lie mode,
products only in polynomial mode; tensor terms (`a (x) b`) only in diagonal
mode.  The three characters ``(x)`` always lex as the tensor symbol, so a
parenthesised bare generator named ``x`` must be written ``( x )``.

Parsing flattens sums and folds scalar prefixes, so expressions have one
canonical form: a tuple of (coefficient, node) pairs.  A coefficient is an
int when no scalar that went into it was written with '/', and a Fraction
otherwise; int and Fraction compare and hash equal by value, so equal
expressions give equal nodes either way.  Pretty-printing that form and
re-parsing is the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class _Node:
    """An immutable parse-tree node: equal to the nodes of its own class with
    equal fields, hashed by its fields once, when it is made (parsing hashes
    every node, and a bracket again at each enclosing level), and printed as
    Class(field=value)."""

    __slots__ = ("_values", "_hash")

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign {value!r} to field {field!r} of an immutable node")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r} of an immutable node")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._values == other._values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{field}={value!r}" for field, value in zip(self.__slots__, self._values))
        return f"{type(self).__name__}({inner})"


class Gen(_Node):
    __slots__ = ("name",)


class Bracket(_Node):
    __slots__ = ("left", "right")


class Prod(_Node):
    __slots__ = ("factors",)  # generator names, in written order


class Tensor(_Node):
    __slots__ = ("left", "right")


Terms = tuple  # tuple[(int | Fraction, node), ...]


_OPS = ("(x)", "+", "-", "*", "/", "[", "]", "(", ")", ",")


def _tokenize(text: str, base_line: int = 1):
    tokens = []
    line, col = base_line, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("(x)", i):
            tokens.append(("(x)", "(x)", line, col))
            i += 3
            col += 3
            continue
        if ch in "+-*/[](),":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, mode: str, known: Optional[set] = None, base_line: int = 1):
        self.tokens = _tokenize(text, base_line)
        self.pos = 0
        self.mode = mode  # "lie" | "poly" | "linear" | "tensor"
        self.known = known
        self.scalar_pos = (base_line, 1)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=""):
        kind, value, line, col = self.peek()
        raise ParseError(message, line, col, expected)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.error(f"found {self.peek()[1] or 'end of input'!r}", expected=repr(kind))
        return self.next()

    def parse(self) -> Terms:
        terms = self.expr()
        if self.peek()[0] != "end":
            self.error(f"trailing input {self.peek()[1]!r}")
        self._reject_scalar(terms)
        return terms

    def _reject_scalar(self, terms: Terms) -> None:
        """Raise at the last scalar read when the terms of an `expr` hold a
        bare scalar; `expr` drops zero sums, so `[x, 2 - 2]` passes."""
        for _, node in terms:
            if node is None:
                line, col = self.scalar_pos
                raise ParseError("a bare scalar is not an element", line, col)

    def expr(self) -> Terms:
        acc: dict = {}
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        self._accumulate(acc, self.term(), sign)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            sign = 1 if op == "+" else -1
            self._accumulate(acc, self.term(), sign)
        return tuple((c, node) for node, c in acc.items() if c)

    @staticmethod
    def _accumulate(acc, terms, sign):
        for coeff, node in terms:
            acc[node] = acc.get(node, 0) + sign * coeff

    def rational(self) -> int | Fraction:
        self.scalar_pos = self.peek()[2:]
        num = int(self.expect("int")[1])
        if self.peek()[0] == "/":
            self.next()
            den = int(self.expect("int")[1])
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return num

    def term(self) -> Terms:
        if self.mode == "tensor":
            coeff = 1
            if self.peek()[0] == "int":
                coeff = self.rational()
                self.expect("*")
            left = self._ident()
            self.expect("(x)")
            right = self._ident()
            return ((coeff, Tensor(left, right)),)
        factors = [self.factor()]
        while self.peek()[0] == "*":
            star = self.peek()
            self.next()
            factors.append(self.factor())
        acc = factors[0]
        for nxt in factors[1:]:
            acc = self._multiply(acc, nxt, star)
        return acc

    def factor(self) -> Terms:
        if self.peek()[0] == "int":
            return ((self.rational(), None),)
        return self.atom()

    def _multiply(self, left: Terms, right: Terms, pos_tok) -> Terms:
        out: dict = {}
        for c1, n1 in left:
            for c2, n2 in right:
                if n1 is None:
                    node = n2
                elif n2 is None:
                    node = n1
                else:
                    if self.mode != "poly":
                        raise ParseError(
                            "products of elements are not allowed here", pos_tok[2], pos_tok[3]
                        )
                    f1 = n1.factors if isinstance(n1, Prod) else (n1.name,)
                    f2 = n2.factors if isinstance(n2, Prod) else (n2.name,)
                    names = f1 + f2
                    node = Gen(names[0]) if len(names) == 1 else Prod(names)
                out[node] = out.get(node, 0) + c1 * c2
        return tuple((c, node) for node, c in out.items() if c)

    def _ident(self) -> str:
        kind, value, line, col = self.peek()
        if kind != "ident":
            self.error(f"found {value or 'end of input'!r}", expected="a name")
        self.next()
        if self.known is not None and value not in self.known:
            raise ParseError(f"unknown name {value!r}", line, col)
        return value

    def atom(self) -> Terms:
        kind, value, line, col = self.peek()
        if kind == "ident":
            return ((1, Gen(self._ident())),)
        if kind == "[":
            if self.mode not in ("lie",):
                self.error("brackets are not allowed here")
            self.next()
            left = self.expr()
            self._reject_scalar(left)
            self.expect(",")
            right = self.expr()
            self._reject_scalar(right)
            self.expect("]")
            return ((1, Bracket(left, right)),)
        if kind == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        self.error(f"found {value or 'end of input'!r}", expected="a name, '[' or '('")


def parse_lie(text: str, known: Optional[set] = None, base_line: int = 1) -> Terms:
    return _Parser(text, "lie", known, base_line).parse()


def parse_poly(text: str, known: Optional[set] = None, base_line: int = 1) -> Terms:
    return _Parser(text, "poly", known, base_line).parse()


def parse_linear(text: str, known: Optional[set] = None, base_line: int = 1) -> Terms:
    return _Parser(text, "linear", known, base_line).parse()


def parse_tensor(text: str, known: Optional[set] = None, base_line: int = 1) -> Terms:
    return _Parser(text, "tensor", known, base_line).parse()


def _format_coeff(coeff: int | Fraction, atom_text: str) -> str:
    if coeff == 1:
        return atom_text
    if coeff.denominator == 1:
        return f"{coeff.numerator} * {atom_text}"
    return f"{coeff.numerator}/{coeff.denominator} * {atom_text}"


def _atom_text(node) -> str:
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Bracket):
        return f"[{format_terms(node.left)}, {format_terms(node.right)}]"
    if isinstance(node, Prod):
        return " * ".join(node.factors)
    if isinstance(node, Tensor):
        return f"{node.left} (x) {node.right}"
    raise TypeError(node)


def format_terms(terms: Terms) -> str:
    if not terms:
        return "0"
    parts = []
    for idx, (coeff, node) in enumerate(terms):
        text = _format_coeff(abs(coeff), _atom_text(node))
        if idx == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(parts)

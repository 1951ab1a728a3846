"""Recursive-descent parser for bundle expressions.

Grammar (whitespace ignored, offsets reported in error messages):

    expr    := term ('+' term)*
    term    := factor ('*' factor)*
    factor  := func | atom | '(' expr ')'
    func    := ('Sym' '^' INT | 'Wedge' '^' INT) '(' expr ')' | 'Dual' '(' expr ')'
    atom    := 'UD' | 'U' | 'QD' | 'Q' | 'O' '(' SINT ')'
             | 'S' '[' SINT (',' SINT)* ']' ('UD'|'U'|'QD'|'Q')

The ambient G(k,n) is supplied by the caller, not the text.
"""

from __future__ import annotations

from math import comb

from . import bundles
from .bundles import BundleExpr
from .errors import ParseError, RankError

# Deepest nesting of '(', 'Sym^m(', 'Wedge^m(' and 'Dual(' accepted; each
# level costs three Python frames, so the cap keeps well inside the
# interpreter's recursion limit.
MAX_DEPTH = 200


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            raise ParseError(f"expected {literal!r}", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


class _Parser:
    def __init__(self, text: str, k: int, n: int):
        self.s = _Scanner(text)
        self.k = k
        self.n = n
        self.depth = 0

    def parse(self) -> BundleExpr:
        e = self.expr()
        self.s.skip_ws()
        if self.s.pos != len(self.s.text):
            raise ParseError("trailing input", self.s.pos)
        return e

    def expr(self) -> BundleExpr:
        out = self.term()
        while self.s.eat("+"):
            out = bundles.direct_sum(out, self.term())
        return out

    def term(self) -> BundleExpr:
        out = self.factor()
        while self.s.eat("*"):
            out = bundles.tensor(out, self.factor())
        return out

    def nested(self) -> BundleExpr:
        """The expression after an opening parenthesis, up to its ')'."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.s.pos)
        self.depth += 1
        e = self.expr()
        self.s.expect(")")
        self.depth -= 1
        return e

    def factor(self) -> BundleExpr:
        s = self.s
        if s.eat("("):
            return self.nested()
        if s.eat("Sym^"):
            m = s.integer()
            s.expect("(")
            inner = self.nested()
            self.check_sym_rank(inner, m)
            return bundles.sym_power(inner, m)
        if s.eat("Wedge^"):
            m = s.integer()
            s.expect("(")
            return bundles.wedge_power(self.nested(), m)
        if s.eat("Dual("):
            return bundles.dual(self.nested())
        if s.eat("S["):
            lam = [s.integer()]
            while s.eat(","):
                lam.append(s.integer())
            s.expect("]")
            block = self.block_name()
            return bundles.schur(self.k, self.n, block, tuple(lam))
        if s.eat("O("):
            t = s.integer()
            s.expect(")")
            return bundles.line(self.k, self.n, t)
        # plain atoms; longest match first
        for name, builder in (
            ("UD", bundles.tautological_dual),
            ("QD", bundles.quotient_dual),
            ("U", bundles.tautological),
            ("Q", bundles.quotient),
        ):
            if s.eat(name):
                return builder(self.k, self.n)
        raise ParseError("expected an atom, Sym^, Wedge^, Dual or '('", s.pos)

    def check_sym_rank(self, a: BundleExpr, m: int) -> None:
        """Reject Sym^m of a sum of r atoms, one of rank >= 2, before the
        fold when m >= 2 and C(r+m-1, m) > dim G.  Each of the C(r+m-1, m)
        splittings of m over the atoms gives a summand of rank >= 1, so the
        power's rank, C(R+m-1, m) for R = rank a, exceeds dim G too, and no
        zero locus has such a summand; the fold would take time polynomial
        in m to find that out."""
        atoms = [(bundles._atom_of(w), mult) for w, mult in a.terms]
        if m < 2 or any(atom is None for atom, _ in atoms):
            return  # a non-atom needs a plethysm, which sym_power refuses
        sizes = [(bundles._atom_rank(atom[0], self.k, self.n), mult) for atom, mult in atoms]
        r = sum(mult for _, mult in sizes)
        dim = self.k * (self.n - self.k)
        if any(size >= 2 for size, _ in sizes) and comb(r + m - 1, m) > dim:
            rank = comb(sum(size * mult for size, mult in sizes) + m - 1, m)
            raise RankError(f"rank {rank} of Sym^{m} exceeds dim G = {dim}")

    def block_name(self) -> str:
        for name in ("UD", "QD", "U", "Q"):
            if self.s.eat(name):
                return name
        raise ParseError("expected U, UD, Q or QD after the Schur label", self.s.pos)


def parse_bundle(text: str, k: int, n: int) -> BundleExpr:
    """Parse a bundle expression on G(k,n); raises ParseError with offset,
    and RankError unless 1 <= k < n."""
    bundles.zero(k, n)  # the ambient check, before any atom is built on it
    return _Parser(text, k, n).parse()

"""Modular product expressions: block-periodic base languages, disjoint
unions, and length-deterministic marker products.

An expression denotes a regular language over a fixed ambient alphabet:

    (base ((a b) (c)))      words of even length whose odd positions carry
                            a or b and whose even positions carry c
    (union E1 E2)           disjoint union
    (dprod n E1 a E2)       L1 . a . L2, deterministic: all words of L1 have
                            the same length residue i mod n and no decorated
                            word of L1 contains the letter a at a position
                            congruent to i+1
    (cprod n E1 a E2)       the mirror-image condition, imposed on L2 with
                            positions counted from the right end

One walk builds the minimal DFA bottom-up, lists every violated side
condition with its subexpression path, and records each product's unique
marker residue.  `validate` returns the violations; `eval_expr` returns
the DFA, and needs only letters inside the alphabet and moduli of at
least 1.  `expr_to_formula` builds from the residues a two-variable
first-order sentence with modular predicates defining the same language;
it relativizes the operand sentences to the prefix and suffix of the
unique marker position, so it requires a valid expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    DEFAULT_STATE_CAP,
    DecoratedLetter,
    Dfa,
    concat_letter,
    decorated_alphabet,
    intersect,
    length_residues,
    minimal_table,
    mod1,
    reverse,
    shortest_accepted,
    table_dfa,
    union,
)
from . import _sexp
from .errors import CapError, InputError
from .fologic import (
    And,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Lab,
    Lt,
    Len,
    Mod,
    Not,
    Or,
    TrueF,
    _children,
    and_all,
    make_len,
    make_mod,
    or_all,
)
from .monoid import format_word


class LangExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Base(LangExpr):
    sets: tuple  # tuple of frozensets of letters; block length = len(sets)

    @property
    def modulus(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Union(LangExpr):
    left: LangExpr
    right: LangExpr


@dataclass(frozen=True)
class DetProd(LangExpr):
    modulus: int
    left: LangExpr
    letter: str
    right: LangExpr


@dataclass(frozen=True)
class CodetProd(LangExpr):
    modulus: int
    left: LangExpr
    letter: str
    right: LangExpr


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str  # "alphabet", "modulus", "disjoint", "uniform-length", "determinism"
    message: str
    witness: str | None = None


def make_base(sets) -> Base:
    groups = tuple(frozenset(s) for s in sets)
    if not groups:
        raise InputError("base expression needs at least one position set")
    for s in groups:
        for a in s:
            if not isinstance(a, str) or not a:
                raise InputError(f"bad letter {a!r} in base expression")
    return Base(groups)


# ---------------------------------------------------------------------------
# Reading and printing

def parse_expr(text: str) -> LangExpr:
    forms = _sexp.read_all(text)
    if len(forms) != 1:
        raise InputError(f"expected exactly one expression, found {len(forms)} forms")
    return _build(forms[0])


def _build(form) -> LangExpr:
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise InputError(f"expected an expression form, got {form!r}")
    head, *args = form
    if head == "base":
        if len(args) != 1 or not isinstance(args[0], list):
            raise InputError("base takes one list of letter sets")
        sets = []
        for item in args[0]:
            if not isinstance(item, list):
                raise InputError(f"each position set must be a list, got {item!r}")
            for a in item:
                if not isinstance(a, str):
                    raise InputError(f"bad letter {a!r} in base expression")
            sets.append(item)
        return make_base(sets)
    if head == "union":
        if len(args) != 2:
            raise InputError(f"union takes 2 arguments, got {len(args)}")
        return Union(_build(args[0]), _build(args[1]))
    if head in ("dprod", "cprod"):
        if len(args) != 4:
            raise InputError(f"{head} takes 4 arguments, got {len(args)}")
        n = _sexp.to_int(args[0], "modulus")
        if n < 1:
            raise InputError(f"modulus must be at least 1, got {n}")
        letter = args[2]
        if not isinstance(letter, str) or letter.startswith("("):
            raise InputError(f"expected a letter, got {letter!r}")
        cls = DetProd if head == "dprod" else CodetProd
        return cls(n, _build(args[1]), letter, _build(args[3]))
    raise InputError(f"unknown expression operator {head!r}")


def expr_to_sexp(e: LangExpr) -> str:
    if isinstance(e, Base):
        sets = " ".join("(" + " ".join(sorted(s)) + ")" for s in e.sets)
        return f"(base ({sets}))"
    if isinstance(e, Union):
        return f"(union {expr_to_sexp(e.left)} {expr_to_sexp(e.right)})"
    if isinstance(e, (DetProd, CodetProd)):
        op = "dprod" if isinstance(e, DetProd) else "cprod"
        return (
            f"({op} {e.modulus} {expr_to_sexp(e.left)} "
            f"{e.letter} {expr_to_sexp(e.right)})"
        )
    raise InputError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# One walk: the DFA, the violated side conditions and the marker residues

def eval_expr(e: LangExpr, alphabet, cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The minimal DFA of the expression.  A letter outside the alphabet or a
    modulus below 1 is an InputError with its violation's message; the
    other side conditions are not needed."""
    d, violations, _ = _walk(e, alphabet, cap)
    if d is None:
        raise InputError(next(v.message for v in violations if v.rule in ("alphabet", "modulus")))
    return d


def validate(e: LangExpr, alphabet) -> list[Violation]:
    """Every violated structural constraint, in discovery order (parents
    after children).  An empty list means the expression is well formed."""
    return _walk(e, alphabet, DEFAULT_STATE_CAP)[1]


def _walk(e: LangExpr, alphabet, cap: int) -> tuple[Dfa | None, list[Violation], dict]:
    """The minimal DFA (None once a letter outside the alphabet or a modulus
    below 1 stops the walk), the violations in discovery order, and the
    unique length residue of each product's guarded operand by `id`."""
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    violations: list[Violation] = []
    residues: dict[int, int] = {}
    d = _check(e, "root", tuple(letters), cap, violations, residues)
    return d, violations, residues


# a uniform-length violation lists at most this many residues, then their count
_RESIDUES_SHOWN = 8


def _check(e: LangExpr, path: str, letters: tuple, cap: int, out: list,
           residues: dict) -> Dfa | None:
    letter_set = set(letters)
    if isinstance(e, Base):
        bad = sorted({a for s in e.sets for a in s if a not in letter_set})
        if bad:
            out.append(
                Violation(path, "alphabet", f"letters outside the alphabet: {', '.join(bad)}")
            )
            return None
        n = e.modulus  # rows 0..n-1 step through the block, row n is dead
        rows = [[(r + 1) % n if a in e.sets[r] else n for a in letters] for r in range(n)]
        rows.append([n] * len(letters))
        return table_dfa(letters, minimal_table((rows, [r == 0 for r in range(n + 1)])))
    if not isinstance(e, (Union, DetProd, CodetProd)):
        raise InputError(f"not an expression: {e!r}")
    d1 = _check(e.left, path + ".left", letters, cap, out, residues)
    d2 = _check(e.right, path + ".right", letters, cap, out, residues)
    if isinstance(e, Union):
        if d1 is None or d2 is None:
            return None
        w = shortest_accepted(intersect(d1, d2))
        if w is not None:
            out.append(
                Violation(
                    path,
                    "disjoint",
                    f"union operands overlap on the word {format_word(w)}",
                    format_word(w),
                )
            )
        return union(d1, d2)
    if e.letter not in letter_set:
        out.append(Violation(path, "alphabet", f"marker letter outside the alphabet: {e.letter}"))
        return None
    if e.modulus < 1:
        out.append(Violation(path, "modulus", f"modulus must be at least 1, got {e.modulus}"))
        return None
    if d1 is None or d2 is None:
        return None
    n = e.modulus
    if isinstance(e, DetProd):
        side, checked = "left", d1
    else:
        side, checked = "right", d2
    found = length_residues(checked, n)
    if len(found) != 1:
        shown = ", ".join(str(r) for r in sorted(found)[:_RESIDUES_SHOWN]) or "none"
        if len(found) > _RESIDUES_SHOWN:
            shown += f", ... ({len(found)} residues)"
        out.append(
            Violation(
                path,
                "uniform-length",
                f"{side} operand must have exactly one length residue mod {n}, found: {shown}",
            )
        )
    else:
        (i,) = found
        residues[id(e)] = i
        probe = DecoratedLetter(e.letter, mod1(i + 1, n)).text
        scan = checked if isinstance(e, DetProd) else reverse(checked)
        if probe in decorated_alphabet(scan, n):
            where = "a position" if isinstance(e, DetProd) else "a position from the right end"
            out.append(
                Violation(
                    path,
                    "determinism",
                    f"{side} operand contains the marker letter {e.letter} at "
                    f"{where} congruent to {mod1(i + 1, n)} mod {n}",
                    probe,
                )
            )
    return concat_letter(d1, e.letter, d2, cap)


# ---------------------------------------------------------------------------
# Translation to a two-variable sentence
#
# The marker of a product is the unique position carrying the product letter
# at the admissible position residue (counted from the left for dprod, from
# the right for cprod).  The operand sentences are relativized to the prefix
# and the suffix of the marker: quantifiers get guarded by the side tests,
# position residues stay absolute on the left and are shifted through the
# marker on the right, and length residues are re-expressed through the
# marker's position.  Only the variables x and y ever occur; inner scopes
# shadow outer ones.

@dataclass(frozen=True)
class _Marker:
    letter: str
    modulus: int
    residue: int  # admissible residue of the marker position, in 1..modulus
    from_right: bool  # residue counted from the right end (cprod)


def _other(v: str) -> str:
    return "y" if v == "x" else "x"


def _marker_at(ctx: _Marker, v: str) -> Formula:
    n, j = ctx.modulus, ctx.residue
    if not ctx.from_right:
        return And(Lab(v, ctx.letter), make_mod(v, n, j))
    # position v has right residue j iff v = T + 1 - j modulo n, split by T mod n
    cases = [
        Or(Not(make_len(n, t)), make_mod(v, n, mod1(t + 1 - j, n)))
        for t in range(1, n + 1)
    ]
    return And(Lab(v, ctx.letter), and_all(cases))


def _marker_size(ctx: _Marker) -> int:
    """The nodes of `_marker_at(ctx, v)`: 5 per residue case from the right."""
    return 5 * ctx.modulus + 1 if ctx.from_right else 3


def _unique_marker(ctx: _Marker, v: str) -> Formula:
    """v is the first (dprod) or last (cprod) marker position."""
    w = _other(v)
    before = Lt(w, v) if not ctx.from_right else Lt(v, w)
    return And(_marker_at(ctx, v), Forall(w, Or(Not(before), Not(_marker_at(ctx, w)))))


def _rho(ctx: _Marker, side: str, v: str) -> Formula:
    """v lies strictly on the given side of the marker position."""
    mv = _other(v)
    cmp = Lt(v, mv) if side == "left" else Lt(mv, v)
    return Exists(mv, And(cmp, _unique_marker(ctx, mv)))


# Most formula nodes the translation of one expression may build, each
# counted once per occurrence.  A product guards every quantifier of its
# operands' sentences with a side test that brings in two more quantifiers,
# so a sentence grows about sixfold per level of product nesting.  The
# largest sentence of the test and benchmark expressions has 529 nodes.
MAX_SENTENCE_NODES = 100_000


def _tree_size(f: Formula) -> int:
    """The nodes of f counted as a tree: a shared node once per occurrence."""
    size, stack = 0, [f]
    while stack:
        size += 1
        stack.extend(_children(stack.pop()))
    return size


class _Translation:
    """The sentences of one valid expression's subexpressions, from the
    residues its walk recorded, built within MAX_SENTENCE_NODES nodes: the
    count is checked as each node is made, so deep nesting stops early,
    and a part that grows with a modulus is checked before it is built."""

    def __init__(self, residues: dict):
        self.residues = residues
        self.nodes = 0

    def _fits(self, size: int) -> None:
        """Refuse a sentence that `size` more nodes take past the cap.  Checked
        before a part is built, `size` is a lower bound of what `_built` then
        counts, so the part is refused exactly when it would be afterwards."""
        if self.nodes + size > MAX_SENTENCE_NODES:
            raise CapError(f"formula node cap exceeded ({MAX_SENTENCE_NODES}) "
                           f"while translating the expression")

    def _built(self, f: Formula, size: int | None = None) -> Formula:
        """f, whose making added `size` nodes, or all of f's when None."""
        size = _tree_size(f) if size is None else size
        self._fits(size)
        self.nodes += size
        return f

    def sentence(self, e: LangExpr) -> Formula:
        if isinstance(e, Base):
            n = e.modulus
            position_rules = [
                Or(
                    Not(make_mod("x", n, i)),
                    or_all([Lab("x", a) for a in sorted(e.sets[i - 1])]),
                )
                for i in range(1, n + 1)
            ]
            return self._built(And(make_len(n, n), Forall("x", and_all(position_rules))))
        if isinstance(e, Union):
            return self._built(Or(self.sentence(e.left), self.sentence(e.right)), 1)
        if isinstance(e, (DetProd, CodetProd)):
            n = e.modulus
            ctx = _Marker(e.letter, n, mod1(self.residues[id(e)] + 1, n), isinstance(e, CodetProd))
            left = self.relativize(self.sentence(e.left), ctx, "left")
            right = self.relativize(self.sentence(e.right), ctx, "right")
            self._fits(_marker_size(ctx))
            marker = self._built(_marker_at(ctx, "x"))
            return self._built(And(Exists("x", marker), And(left, right)), 3)
        raise InputError(f"not an expression: {e!r}")

    def relativize(self, f: Formula, ctx: _Marker, side: str) -> Formula:
        if isinstance(f, (TrueF, FalseF, Lab, Eq, Lt)) or (isinstance(f, Mod) and side == "left"):
            return self._built(f, 1)
        if isinstance(f, (Mod, Len, Exists, Forall)):
            # a unique marker (two markers), and on the right n shifted residue cases
            shifted = isinstance(f, (Mod, Len)) and side == "right"
            self._fits(2 * _marker_size(ctx) + (5 * f.modulus - 1 if shifted else 0))
        if isinstance(f, Mod):
            mv = _other(f.var)
            n = f.modulus
            shift = [
                Or(Not(make_mod(mv, n, t)), make_mod(f.var, n, mod1(t + f.residue, n)))
                for t in range(1, n + 1)
            ]
            return self._built(Exists(mv, And(_unique_marker(ctx, mv), and_all(shift))))
        if isinstance(f, Len):
            n = f.modulus
            if side == "left":
                # prefix length = marker position - 1
                return self._built(Exists(
                    "x",
                    And(_unique_marker(ctx, "x"), make_mod("x", n, mod1(f.residue + 1, n))),
                ))
            # suffix length = word length - marker position
            cases = [
                Or(Not(make_mod("x", n, t)), make_len(n, mod1(t + f.residue, n)))
                for t in range(1, n + 1)
            ]
            return self._built(Exists("x", And(_unique_marker(ctx, "x"), and_all(cases))))
        if isinstance(f, (And, Or)):
            return self._built(type(f)(self.relativize(f.left, ctx, side),
                                       self.relativize(f.right, ctx, side)), 1)
        if isinstance(f, Not):
            return self._built(Not(self.relativize(f.sub, ctx, side)), 1)
        if isinstance(f, Exists):
            guard = self._built(_rho(ctx, side, f.var))
            return self._built(Exists(f.var, And(guard, self.relativize(f.body, ctx, side))), 2)
        if isinstance(f, Forall):
            guard = self._built(_rho(ctx, side, f.var))
            return self._built(
                Forall(f.var, Or(Not(guard), self.relativize(f.body, ctx, side))), 3)
        raise InputError(f"not a formula: {f!r}")


def expr_to_formula(e: LangExpr, alphabet) -> Formula:
    """A sentence over two variables defining the expression's language.
    The expression must satisfy all side conditions, and its sentence be
    built within MAX_SENTENCE_NODES nodes."""
    _, violations, residues = _walk(e, alphabet, DEFAULT_STATE_CAP)
    if violations:
        first = violations[0]
        raise InputError(
            f"expression violates product constraints at {first.path}: {first.message}"
        )
    return _Translation(residues).sentence(e)

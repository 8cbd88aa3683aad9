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

`validate` reports every violated side condition with the subexpression
path.  `expr_to_formula` builds a two-variable first-order sentence with
modular predicates defining the same language; it relativizes the operand
sentences to the prefix and suffix of the unique marker position, so it
requires a valid expression.
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
    make_dfa,
    minimize,
    mod1,
    reverse,
    shortest_accepted,
    union,
)
from . import _sexp
from .errors import InputError
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
# Evaluation to a DFA

def eval_expr(e: LangExpr, alphabet, cap: int = DEFAULT_STATE_CAP) -> Dfa:
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    return _eval(e, tuple(letters), cap)


def _eval(e: LangExpr, letters: tuple, cap: int) -> Dfa:
    if isinstance(e, Base):
        letter_set = set(letters)
        for s in e.sets:
            for a in s:
                if a not in letter_set:
                    raise InputError(f"letter {a!r} outside alphabet")
        n = e.modulus
        dead = "dead"
        states: list = list(range(n)) + [dead]
        delta = {}
        for r in range(n):
            for a in letters:
                delta[(r, a)] = (r + 1) % n if a in e.sets[r] else dead
        for a in letters:
            delta[(dead, a)] = dead
        return minimize(make_dfa(letters, states, 0, [0], delta))
    if isinstance(e, Union):
        return union(_eval(e.left, letters, cap), _eval(e.right, letters, cap))
    if isinstance(e, (DetProd, CodetProd)):
        if e.letter not in set(letters):
            raise InputError(f"letter {e.letter!r} outside alphabet")
        d1 = _eval(e.left, letters, cap)
        d2 = _eval(e.right, letters, cap)
        return concat_letter(d1, e.letter, d2, cap)
    raise InputError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Side conditions

def validate(e: LangExpr, alphabet) -> list[Violation]:
    """Every violated structural constraint, in discovery order (parents
    after children).  An empty list means the expression is well formed."""
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    out: list[Violation] = []
    _check(e, "root", tuple(letters), out)
    return out


# a uniform-length violation lists at most this many residues, then their count
_RESIDUES_SHOWN = 8


def _check(e: LangExpr, path: str, letters: tuple, out: list) -> Dfa | None:
    letter_set = set(letters)
    if isinstance(e, Base):
        bad = sorted({a for s in e.sets for a in s if a not in letter_set})
        if bad:
            out.append(
                Violation(path, "alphabet", f"letters outside the alphabet: {', '.join(bad)}")
            )
            return None
        return _eval(e, letters, DEFAULT_STATE_CAP)
    if isinstance(e, Union):
        d1 = _check(e.left, path + ".left", letters, out)
        d2 = _check(e.right, path + ".right", letters, out)
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
    if isinstance(e, (DetProd, CodetProd)):
        d1 = _check(e.left, path + ".left", letters, out)
        d2 = _check(e.right, path + ".right", letters, out)
        if e.letter not in letter_set:
            out.append(
                Violation(path, "alphabet", f"marker letter outside the alphabet: {e.letter}")
            )
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
        residues = length_residues(checked, n)
        if len(residues) != 1:
            found = ", ".join(str(r) for r in sorted(residues)[:_RESIDUES_SHOWN]) or "none"
            if len(residues) > _RESIDUES_SHOWN:
                found += f", ... ({len(residues)} residues)"
            out.append(
                Violation(
                    path,
                    "uniform-length",
                    f"{side} operand must have exactly one length residue mod {n}, found: {found}",
                )
            )
        else:
            (i,) = residues
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
        return concat_letter(d1, e.letter, d2, DEFAULT_STATE_CAP)
    raise InputError(f"not an expression: {e!r}")


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


def _relativize(f: Formula, ctx: _Marker, side: str) -> Formula:
    if isinstance(f, (TrueF, FalseF, Lab, Eq, Lt)):
        return f
    if isinstance(f, Mod):
        if side == "left":
            return f
        mv = _other(f.var)
        n = f.modulus
        shift = [
            Or(Not(make_mod(mv, n, t)), make_mod(f.var, n, mod1(t + f.residue, n)))
            for t in range(1, n + 1)
        ]
        return Exists(mv, And(_unique_marker(ctx, mv), and_all(shift)))
    if isinstance(f, Len):
        n = f.modulus
        if side == "left":
            # prefix length = marker position - 1
            return Exists(
                "x",
                And(_unique_marker(ctx, "x"), make_mod("x", n, mod1(f.residue + 1, n))),
            )
        # suffix length = word length - marker position
        cases = [
            Or(Not(make_mod("x", n, t)), make_len(n, mod1(t + f.residue, n)))
            for t in range(1, n + 1)
        ]
        return Exists("x", And(_unique_marker(ctx, "x"), and_all(cases)))
    if isinstance(f, And):
        return And(_relativize(f.left, ctx, side), _relativize(f.right, ctx, side))
    if isinstance(f, Or):
        return Or(_relativize(f.left, ctx, side), _relativize(f.right, ctx, side))
    if isinstance(f, Not):
        return Not(_relativize(f.sub, ctx, side))
    if isinstance(f, Exists):
        return Exists(f.var, And(_rho(ctx, side, f.var), _relativize(f.body, ctx, side)))
    if isinstance(f, Forall):
        return Forall(
            f.var, Or(Not(_rho(ctx, side, f.var)), _relativize(f.body, ctx, side))
        )
    raise InputError(f"not a formula: {f!r}")


def expr_to_formula(e: LangExpr, alphabet) -> Formula:
    """A sentence over two variables defining the expression's language.
    The expression must satisfy all side conditions."""
    violations = validate(e, alphabet)
    if violations:
        first = violations[0]
        raise InputError(
            f"expression violates product constraints at {first.path}: {first.message}"
        )
    letters = tuple(sorted(set(alphabet)))
    return _formula_of(e, letters)


def _formula_of(e: LangExpr, letters: tuple) -> Formula:
    if isinstance(e, Base):
        n = e.modulus
        position_rules = [
            Or(
                Not(make_mod("x", n, i)),
                or_all([Lab("x", a) for a in sorted(e.sets[i - 1])]),
            )
            for i in range(1, n + 1)
        ]
        return And(make_len(n, n), Forall("x", and_all(position_rules)))
    if isinstance(e, Union):
        return Or(_formula_of(e.left, letters), _formula_of(e.right, letters))
    if isinstance(e, (DetProd, CodetProd)):
        n = e.modulus
        checked = e.left if isinstance(e, DetProd) else e.right
        (i,) = length_residues(_eval(checked, letters, DEFAULT_STATE_CAP), n)
        ctx = _Marker(e.letter, n, mod1(i + 1, n), isinstance(e, CodetProd))
        left = _relativize(_formula_of(e.left, letters), ctx, "left")
        right = _relativize(_formula_of(e.right, letters), ctx, "right")
        return And(Exists("x", _marker_at(ctx, "x")), And(left, right))
    raise InputError(f"not an expression: {e!r}")

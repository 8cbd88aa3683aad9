"""First-order formulas over word positions: order, labels, and the modular
position and length predicates.

Formulas are read and printed as s-expressions.  The core connectives are

    true, false, (lab x a), (= x y), (< x y), (mod x n i), (len n i),
    (and f ...), (or f ...), (not f), (exists x f), (forall x f)

with derived forms expanded at parse time:

    (<= x y), (-> f g), (<-> f g), (suc x y), (lab x (a b c))

Residues follow the 1..n convention; an input residue of 0 is accepted and
normalized to n.  Truth on a word uses 1-based positions.  On the empty word
an existential quantifier is false and a universal one is true.

`compile_formula` turns a sentence into the minimal DFA of its models.  It
works over letters enriched with the set of variables marked at a position,
using one exactly-once validity automaton per quantifier scope; existential
quantification is mark erasure followed by determinization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _sexp
from .automata import DEFAULT_STATE_CAP, Dfa, Nfa, determinize, intersect, make_dfa, minimize, mod1, union
from .errors import CapError, InputError


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Lab(Formula):
    var: str
    letter: str


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Lt(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Mod(Formula):
    """Position residue: the variable's position is congruent to `residue`
    modulo `modulus` (residue stored in 1..modulus)."""

    var: str
    modulus: int
    residue: int


@dataclass(frozen=True)
class Len(Formula):
    """Length residue: the word length is congruent to `residue` modulo
    `modulus` (residue stored in 1..modulus)."""

    modulus: int
    residue: int


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


_KEYWORDS = {
    "true", "false", "lab", "=", "<", "<=", "mod", "len", "suc",
    "and", "or", "not", "->", "<->", "exists", "forall", "alphabet",
}


def and_all(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return TrueF()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def or_all(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return FalseF()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def make_mod(var: str, modulus: int, residue: int) -> Mod:
    return Mod(var, modulus, _norm_residue(modulus, residue))


def make_len(modulus: int, residue: int) -> Len:
    return Len(modulus, _norm_residue(modulus, residue))


def _norm_residue(modulus: int, residue: int) -> int:
    if modulus < 1:
        raise InputError(f"modulus must be at least 1, got {modulus}")
    if not 0 <= residue <= modulus:
        raise InputError(f"residue {residue} out of range for modulus {modulus}")
    return modulus if residue == 0 else residue


def _var(token, what: str = "variable") -> str:
    if not isinstance(token, str) or token in _KEYWORDS:
        raise InputError(f"expected a {what}, got {token!r}")
    return token


def _fresh(taken: set[str]) -> str:
    if "z" not in taken:
        return "z"
    k = 1
    while f"z{k}" in taken:
        k += 1
    return f"z{k}"


def _le(x: str, y: str) -> Formula:
    return Or(Lt(x, y), Eq(x, y))


def _build(form) -> Formula:
    if isinstance(form, str):
        if form == "true":
            return TrueF()
        if form == "false":
            return FalseF()
        raise InputError(f"unexpected atom {form!r} where a formula was expected")
    if not form:
        raise InputError("empty form")
    head = form[0]
    if not isinstance(head, str):
        raise InputError(f"expected an operator, got {head!r}")
    args = form[1:]

    def arity(n):
        if len(args) != n:
            raise InputError(f"{head} takes {n} argument(s), got {len(args)}")

    if head == "lab":
        arity(2)
        x = _var(args[0])
        target = args[1]
        if isinstance(target, list):
            letters = sorted({_var(t, "letter") for t in target})
            return or_all([Lab(x, a) for a in letters])
        return Lab(x, _var(target, "letter"))
    if head == "=":
        arity(2)
        return Eq(_var(args[0]), _var(args[1]))
    if head == "<":
        arity(2)
        return Lt(_var(args[0]), _var(args[1]))
    if head == "<=":
        arity(2)
        return _le(_var(args[0]), _var(args[1]))
    if head == "suc":
        arity(2)
        x, y = _var(args[0]), _var(args[1])
        z = _fresh({x, y})
        return And(Lt(x, y), Forall(z, Not(And(Lt(x, z), Lt(z, y)))))
    if head == "mod":
        arity(3)
        return make_mod(
            _var(args[0]),
            _sexp.to_int(args[1], "modulus"),
            _sexp.to_int(args[2], "residue"),
        )
    if head == "len":
        arity(2)
        return make_len(_sexp.to_int(args[0], "modulus"), _sexp.to_int(args[1], "residue"))
    if head == "and":
        return and_all([_build(a) for a in args])
    if head == "or":
        return or_all([_build(a) for a in args])
    if head == "not":
        arity(1)
        return Not(_build(args[0]))
    if head == "->":
        arity(2)
        return Or(Not(_build(args[0])), _build(args[1]))
    if head == "<->":
        arity(2)
        f, g = _build(args[0]), _build(args[1])
        return And(Or(Not(f), g), Or(Not(g), f))
    if head in ("exists", "forall"):
        arity(2)
        x = _var(args[0])
        body = _build(args[1])
        return Exists(x, body) if head == "exists" else Forall(x, body)
    raise InputError(f"unknown operator {head!r}")


def parse_formula(text: str) -> Formula:
    forms = _sexp.read_all(text)
    if len(forms) != 1:
        raise InputError(f"expected exactly one formula, found {len(forms)} forms")
    return _build(forms[0])


def parse_formula_document(text: str) -> tuple[list[str] | None, Formula]:
    """A document is an optional `(alphabet a b ...)` header followed by one
    formula."""
    forms = _sexp.read_all(text)
    alphabet = None
    if forms and isinstance(forms[0], list) and forms[0][:1] == ["alphabet"]:
        header = forms.pop(0)
        letters = [_var(t, "letter") for t in header[1:]]
        if not letters or len(set(letters)) != len(letters):
            raise InputError("alphabet header must list distinct letters")
        alphabet = letters
    if len(forms) != 1:
        raise InputError(f"expected exactly one formula, found {len(forms)} forms")
    return alphabet, _build(forms[0])


def to_sexp(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Lab):
        return f"(lab {f.var} {f.letter})"
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, Lt):
        return f"(< {f.left} {f.right})"
    if isinstance(f, Mod):
        return f"(mod {f.var} {f.modulus} {f.residue})"
    if isinstance(f, Len):
        return f"(len {f.modulus} {f.residue})"
    if isinstance(f, And):
        return f"(and {to_sexp(f.left)} {to_sexp(f.right)})"
    if isinstance(f, Or):
        return f"(or {to_sexp(f.left)} {to_sexp(f.right)})"
    if isinstance(f, Not):
        return f"(not {to_sexp(f.sub)})"
    if isinstance(f, Exists):
        return f"(exists {f.var} {to_sexp(f.body)})"
    if isinstance(f, Forall):
        return f"(forall {f.var} {to_sexp(f.body)})"
    raise InputError(f"not a formula: {f!r}")


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (TrueF, FalseF, Len)):
        return frozenset()
    if isinstance(f, Lab):
        return frozenset({f.var})
    if isinstance(f, Mod):
        return frozenset({f.var})
    if isinstance(f, (Eq, Lt)):
        return frozenset({f.left, f.right})
    if isinstance(f, (And, Or)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise InputError(f"not a formula: {f!r}")


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def _all_names(f: Formula, out: set[str]):
    if isinstance(f, Lab):
        out.add(f.var)
    elif isinstance(f, Mod):
        out.add(f.var)
    elif isinstance(f, (Eq, Lt)):
        out.add(f.left)
        out.add(f.right)
    elif isinstance(f, (And, Or)):
        _all_names(f.left, out)
        _all_names(f.right, out)
    elif isinstance(f, Not):
        _all_names(f.sub, out)
    elif isinstance(f, (Exists, Forall)):
        out.add(f.var)
        _all_names(f.body, out)


def formula_stats(f: Formula) -> dict:
    """Descriptive statistics: variable names, modular-predicate usage, and
    the quantifier prefix when the formula is prenex.  Informational only;
    fragment membership is decided algebraically, never from the shape of
    one particular formula."""
    names: set[str] = set()
    _all_names(f, names)

    def uses_mod(g) -> bool:
        if isinstance(g, (Mod, Len)):
            return True
        if isinstance(g, (And, Or)):
            return uses_mod(g.left) or uses_mod(g.right)
        if isinstance(g, Not):
            return uses_mod(g.sub)
        if isinstance(g, (Exists, Forall)):
            return uses_mod(g.body)
        return False

    def quantifier_free(g) -> bool:
        if isinstance(g, (Exists, Forall)):
            return False
        if isinstance(g, (And, Or)):
            return quantifier_free(g.left) and quantifier_free(g.right)
        if isinstance(g, Not):
            return quantifier_free(g.sub)
        return True

    prefix = []
    matrix = f
    while isinstance(matrix, (Exists, Forall)):
        prefix.append("exists" if isinstance(matrix, Exists) else "forall")
        matrix = matrix.body
    blocks: list[str] | None
    if quantifier_free(matrix):
        blocks = [k for k, _ in itertools.groupby(prefix)]
    else:
        blocks = None
    return {
        "variables": sorted(names),
        "variable_count": len(names),
        "uses_modular_predicates": uses_mod(f),
        "prenex_blocks": blocks,
    }


# ---------------------------------------------------------------------------
# Truth on a word

def eval_formula(f: Formula, word: Sequence[str]) -> bool:
    fv = free_vars(f)
    if fv:
        raise InputError(f"formula has free variables: {', '.join(sorted(fv))}")
    return _eval(f, tuple(word), {})


def _eval(f: Formula, word: tuple, env: dict) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Lab):
        return word[env[f.var] - 1] == f.letter
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Lt):
        return env[f.left] < env[f.right]
    if isinstance(f, Mod):
        return mod1(env[f.var], f.modulus) == f.residue
    if isinstance(f, Len):
        return mod1(len(word), f.modulus) == f.residue
    if isinstance(f, And):
        return _eval(f.left, word, env) and _eval(f.right, word, env)
    if isinstance(f, Or):
        return _eval(f.left, word, env) or _eval(f.right, word, env)
    if isinstance(f, Not):
        return not _eval(f.sub, word, env)
    if isinstance(f, Exists):
        return any(
            _eval(f.body, word, {**env, f.var: i}) for i in range(1, len(word) + 1)
        )
    if isinstance(f, Forall):
        return all(
            _eval(f.body, word, {**env, f.var: i}) for i in range(1, len(word) + 1)
        )
    raise InputError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Compilation to a DFA

def compile_formula(f: Formula, alphabet: Sequence[str], state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The minimal DFA of the sentence's models over the given alphabet."""
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    fv = free_vars(f)
    if fv:
        raise InputError(f"formula has free variables: {', '.join(sorted(fv))}")
    for a in formula_letters(f):
        if a not in letters:
            raise InputError(f"formula letter {a!r} not in the alphabet")
    renamed = _rename_apart(f)
    compiler = _Compiler(letters, state_cap)
    d = compiler.compile(renamed, ())
    plain = {(a, ()): a for a in letters}
    delta = {(q, plain[m]): t for (q, m), t in d.delta.items()}
    return minimize(make_dfa(letters, d.states, d.initial, d.finals, delta))


def formula_letters(f: Formula) -> set[str]:
    """Letters mentioned by label atoms anywhere in the formula."""
    out: set[str] = set()

    def walk(g):
        if isinstance(g, Lab):
            out.add(g.letter)
        elif isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body)

    walk(f)
    return out


def _rename_apart(f: Formula) -> Formula:
    """Give every binder a distinct variable name so scopes never collide."""
    counter = itertools.count()

    def walk(g, env):
        if isinstance(g, (TrueF, FalseF, Len)):
            return g
        if isinstance(g, Lab):
            return Lab(env[g.var], g.letter)
        if isinstance(g, Mod):
            return Mod(env[g.var], g.modulus, g.residue)
        if isinstance(g, Eq):
            return Eq(env[g.left], env[g.right])
        if isinstance(g, Lt):
            return Lt(env[g.left], env[g.right])
        if isinstance(g, And):
            return And(walk(g.left, env), walk(g.right, env))
        if isinstance(g, Or):
            return Or(walk(g.left, env), walk(g.right, env))
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        if isinstance(g, (Exists, Forall)):
            fresh = f"v{next(counter)}"
            body = walk(g.body, {**env, g.var: fresh})
            return Exists(fresh, body) if isinstance(g, Exists) else Forall(fresh, body)
        raise InputError(f"not a formula: {g!r}")

    return walk(f, {})


class _Compiler:
    """Compiles subformulas over letters marked with the variables of the
    enclosing quantifier scopes.  A marked letter is the pair
    (base letter, sorted tuple of variables marked at that position)."""

    def __init__(self, letters: list[str], cap: int):
        self.letters = letters
        self.cap = cap
        self._validity: dict[tuple, Dfa] = {}
        self._marked: dict[tuple, list] = {}

    def marked(self, frame: tuple) -> list:
        if frame not in self._marked:
            vs = sorted(frame)
            self._marked[frame] = [
                (a, marks)
                for a in self.letters
                for k in range(len(vs) + 1)
                for marks in itertools.combinations(vs, k)
            ]
        return self._marked[frame]

    def validity(self, frame: tuple) -> Dfa:
        """Accepts the markings placing each frame variable exactly once."""
        if frame not in self._validity:
            full = frozenset(frame)
            subsets = [
                frozenset(c)
                for k in range(len(frame) + 1)
                for c in itertools.combinations(sorted(frame), k)
            ]
            dead = "dead"
            delta = {}
            for s in subsets:
                for a, marks in self.marked(frame):
                    m = frozenset(marks)
                    delta[(s, (a, marks))] = dead if m & s else s | m
            for a in self.marked(frame):
                delta[(dead, a)] = dead
            self._validity[frame] = make_dfa(
                self.marked(frame), subsets + [dead], frozenset(), [full], delta
            )
        return self._validity[frame]

    def _const(self, frame: tuple, accept: bool) -> Dfa:
        m = self.marked(frame)
        return make_dfa(m, ["s"], "s", ["s"] if accept else [], {("s", a): "s" for a in m})

    def _guard(self, d: Dfa) -> Dfa:
        if len(d.states) > self.cap:
            raise CapError(f"state cap exceeded ({self.cap}) while compiling")
        return d

    def compile(self, f: Formula, frame: tuple) -> Dfa:
        if isinstance(f, TrueF):
            return self.validity(frame) if frame else self._const(frame, True)
        if isinstance(f, FalseF):
            return self._const(frame, False)
        if isinstance(f, (Lab, Eq, Lt, Mod, Len)):
            return self._guard(intersect(self._atomic(f, frame), self.validity(frame)))
        if isinstance(f, And):
            return self._guard(
                intersect(self.compile(f.left, frame), self.compile(f.right, frame))
            )
        if isinstance(f, Or):
            return self._guard(
                union(self.compile(f.left, frame), self.compile(f.right, frame))
            )
        if isinstance(f, Not):
            inner = self.compile(f.sub, frame)
            flipped = make_dfa(
                inner.alphabet,
                inner.states,
                inner.initial,
                set(inner.states) - inner.finals,
                inner.delta,
            )
            if not frame:
                return self._guard(minimize(flipped))
            return self._guard(intersect(flipped, self.validity(frame)))
        if isinstance(f, Exists):
            inner = self.compile(f.body, frame + (f.var,))
            return self._guard(self._project(inner, f.var, frame))
        if isinstance(f, Forall):
            return self.compile(Not(Exists(f.var, Not(f.body))), frame)
        raise InputError(f"not a formula: {f!r}")

    def _project(self, d: Dfa, var: str, frame: tuple) -> Dfa:
        nfa = Nfa()
        index = {q: nfa.new_state() for q in d.states}
        for (q, (a, marks)), t in d.delta.items():
            erased = tuple(v for v in marks if v != var)
            nfa.add(index[q], (a, erased), index[t])
        nfa.starts = {index[d.initial]}
        nfa.finals = {index[q] for q in d.finals}
        return determinize(nfa, self.marked(frame), self.cap)

    def _atomic(self, f: Formula, frame: tuple) -> Dfa:
        m = self.marked(frame)
        if isinstance(f, Lab):

            def step(state, a, marks):
                if state != "w":
                    return state
                if f.var in marks:
                    return "o" if a == f.letter else "d"
                return "w"

            return self._chain(m, step, finals=["o"])
        if isinstance(f, Eq):
            if f.left == f.right:
                return self._const(frame, True)

            def step(state, a, marks):
                if state != "w":
                    return state
                both = f.left in marks and f.right in marks
                one = (f.left in marks) != (f.right in marks)
                return "o" if both else ("d" if one else "w")

            return self._chain(m, step, finals=["o"])
        if isinstance(f, Lt):
            if f.left == f.right:
                return self._const(frame, False)

            def step(state, a, marks):
                if state in ("o", "d"):
                    return state
                has_l = f.left in marks
                has_r = f.right in marks
                if state == "w":
                    if has_l and has_r:
                        return "d"
                    if has_r:
                        return "d"
                    return "l" if has_l else "w"
                # state == "l": left already seen
                return "o" if has_r else "l"

            return self._chain(m, step, finals=["o"], extra=["l"])
        if isinstance(f, Mod):
            n, i = f.modulus, f.residue
            states: list = list(range(n)) + ["o", "d"]
            delta = {}
            for r in range(n):
                for a, marks in m:
                    if f.var in marks:
                        delta[(r, (a, marks))] = "o" if mod1(r + 1, n) == i else "d"
                    else:
                        delta[(r, (a, marks))] = (r + 1) % n
            for s in ("o", "d"):
                for x in m:
                    delta[(s, x)] = s
            return make_dfa(m, states, 0, ["o"], delta)
        if isinstance(f, Len):
            n, i = f.modulus, f.residue
            delta = {(r, x): (r + 1) % n for r in range(n) for x in m}
            return make_dfa(m, list(range(n)), 0, [i % n], delta)
        raise InputError(f"not an atomic formula: {f!r}")

    def _chain(self, m: list, step, finals: list, extra: list | None = None) -> Dfa:
        states = ["w", "o", "d"] + (extra or [])
        delta = {(s, (a, marks)): step(s, a, marks) for s in states for a, marks in m}
        return make_dfa(m, states, "w", finals, delta)

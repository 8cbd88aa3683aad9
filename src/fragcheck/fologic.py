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
works over letters enriched with the set of variables marked at a position;
existential quantification is mark erasure followed by determinization.
Under a frame F (the variables bound above a subformula) a marked word is
F-valid when each variable of F marks exactly one position.  The table of
a subformula is exact on F-valid words only: it accepts an F-valid word iff
the word satisfies the subformula, and may accept or reject any other
marking.  Each rule keeps this:

- `true` and `false` are one-state constants, and an atom decides at the
  first mark of its variables, which is right when each is marked once;
- `and`, `or` and `not` act pointwise, so they keep it on every word;
- `(exists x f)` erases x from the table of f keeping only the runs
  that mark x exactly once, so on an F-valid word every kept marking is
  (F + x)-valid, and the erasure accepts exactly the F-valid words with a
  witness (`forall` is compiled as `not exists not`).  The other
  variables of F need no check there: their markings are fixed by the
  outer word.

At the top level F is empty and every word is valid, so the final table
accepts exactly the models.

Before compiling, `_rename_apart` names each binder by its nesting depth
(v0, v1, ...) and interns the nodes bottom-up, so alpha-equivalent
subformulas at equal depth become one object and the formula tree becomes
a DAG.  The compiler remembers each table by (node identity, depth): a
subformula that occurs many times, as the operands of an expanded `<->` or
the repeated guards of a translated expression do, is compiled once per
depth.  The same walk checks that the input is a sentence over the
alphabet, so `compile_formula` walks its input once.  The walkers that only
read a formula (free variables, letters, statistics, truth on a word)
likewise visit a shared node once, or, for truth, once per binding of the
variables above it.

Every intermediate automaton is an integer table of `automata`: a list of
rows of successor states, one row per state and one entry per marked
letter, with a list of accepting flags and state 0 as the start.  The
marked letter `a << k | mask` carries letter index a and the variables
whose bits mask sets, the innermost bound variable on the top bit k - 1.
Atoms and constants are built as rows, already minimal.  Conjunction and
disjunction are products over the pairs reachable from the start, one
breadth-first loop over the pairs (`automata.product_table`), in which
all the pairs with a component absorbing at the operation's annihilating
flag (rejecting for `and`, accepting for `or`) are one sink state.
Erasing a variable reads two columns per marked letter of the outer
scope, the variable unmarked and marked, and determinizes over subsets of
(state, flag) pairs keyed by frozensets, the flag saying whether the
variable is already marked; outer letters that read the same pair of
columns share one subset step, and `automata.determinize` numbers the
subsets.  The runs at an absorbing rejecting state are dropped, and every
subset holding a marked run at an absorbing accepting state is one
accepting sink.  Atoms move to absorbing states once they are decided, so
such states are common in the tables above them.  Both collapses are
quotients by language equality: they change no minimal table, only what is
numbered.  Negation flips the accepting flags of a complete table.  A
conjunction or disjunction with an operand that decides it, the constant
false under `and` and true under `or`, is that constant: a constant node
is seen before either operand is compiled, and a one-state table of that
flag once it is, and the other operand is then not compiled.

`automata.minimal_table` (Moore) runs at two places only: on the body of
each quantifier, before its erasure, since the subset construction is the
one step whose cost can grow exponentially with its input; and on the
sentence's table.  Products, negations and erasures keep the tables they
build: a product needs only complete operands, and already collapses the
absorbing states an operand that is not minimal may repeat.  So the
minimal sentence table over plain letters becomes a `Dfa` through
`automata.table_dfa`, which numbers its states canonically.

Three caps apply.  The parser rejects trees deeper than MAX_FORMULA_DEPTH
(InputError).  Compilation raises CapError when a quantifier scope would
need more than MAX_MARKED_LETTERS marked letters, checked before its body is
compiled; when a conjunction or disjunction reaches more states than the
state cap, the sink counted once, checked while the product numbers them
from operands that no Moore run has reduced; when determinization finds
more subsets of (state, flag) pairs than the state cap, in the erasure of a
minimized body, after the dead runs are dropped and with the accepting sink
counted once; and when an atom has more states than the state cap.  A
`mod` or `len` modulus above the cap is refused before its table is built,
since no such atom has fewer states than its modulus.  Moore only shrinks a
table, so the sentence's table, itself within the cap, needs no check.  An
operand that a deciding constant leaves uncompiled meets none of the caps.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _sexp
from .automata import (
    DEFAULT_STATE_CAP, Dfa, Table, absorbing_states, determinize, minimal_table, mod1,
    product_table, table_dfa,
)
from .errors import CapError, InputError

# Deepest formula tree the parser builds.  The n-ary `and`/`or` fold into
# right-nested binary trees, one level per operand.  The walkers that
# recurse (parsing, renaming, compiling, truth on a word) take one or two
# Python frames per level, so this keeps them under Python's default
# recursion limit of 1000; the others walk an explicit stack, printing
# among them, as `modprod` translates expressions into deeper sentences.
MAX_FORMULA_DEPTH = 500

# Most marked letters (letters times subsets of the variables in scope) one
# quantifier scope may compile over.  Tables are as wide as this, and each
# nested quantifier doubles it.
MAX_MARKED_LETTERS = 256


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


def _level(depth: int):
    """Reject a formula node at tree level `depth` beyond the limit."""
    if depth > MAX_FORMULA_DEPTH:
        raise InputError(f"formula tree nested deeper than {MAX_FORMULA_DEPTH} levels")


def _build(form, depth: int = 1) -> Formula:
    """The formula of an s-expression that sits at level `depth` (the root
    is level 1) of the whole tree.  Derived forms count the levels of their
    expansion, and the i-th of n `and`/`or` operands sits min(i + 1, n - 1)
    levels below the fold."""
    _level(depth)
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
            _level(depth + len(letters) - 1)
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
        _level(depth + 1)
        return _le(_var(args[0]), _var(args[1]))
    if head == "suc":
        arity(2)
        x, y = _var(args[0]), _var(args[1])
        z = _fresh({x, y})
        _level(depth + 4)
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
    if head in ("and", "or"):
        parts = [_build(a, depth + min(i + 1, len(args) - 1)) for i, a in enumerate(args)]
        return and_all(parts) if head == "and" else or_all(parts)
    if head == "not":
        arity(1)
        return Not(_build(args[0], depth + 1))
    if head == "->":
        arity(2)
        return Or(Not(_build(args[0], depth + 2)), _build(args[1], depth + 1))
    if head == "<->":
        arity(2)
        f, g = _build(args[0], depth + 3), _build(args[1], depth + 3)
        return And(Or(Not(f), g), Or(Not(g), f))
    if head in ("exists", "forall"):
        arity(2)
        x = _var(args[0])
        body = _build(args[1], depth + 1)
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
    """The formula as an s-expression, written from an explicit stack of
    formulas and literal text, so deep trees do not recurse."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, TrueF):
            out.append("true")
        elif isinstance(g, FalseF):
            out.append("false")
        elif isinstance(g, Lab):
            out.append(f"(lab {g.var} {g.letter})")
        elif isinstance(g, Eq):
            out.append(f"(= {g.left} {g.right})")
        elif isinstance(g, Lt):
            out.append(f"(< {g.left} {g.right})")
        elif isinstance(g, Mod):
            out.append(f"(mod {g.var} {g.modulus} {g.residue})")
        elif isinstance(g, Len):
            out.append(f"(len {g.modulus} {g.residue})")
        elif isinstance(g, (And, Or, Not, Exists, Forall)):
            head = type(g).__name__.lower()
            out.append(f"({head} {g.var}" if isinstance(g, (Exists, Forall)) else f"({head}")
            stack.append(")")
            for c in reversed(_children(g)):
                stack += [c, " "]
        else:
            raise InputError(f"not a formula: {g!r}")
    return "".join(out)


def _children(f: Formula) -> tuple:
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, (Exists, Forall)):
        return (f.body,)
    if isinstance(f, Formula):
        return ()
    raise InputError(f"not a formula: {f!r}")


def _nodes(f: Formula) -> list[Formula]:
    """The distinct nodes of the formula, children before parents.  A node
    that several parents share (as `<->` shares its operands) is listed
    once, so walks over this list stay linear in the number of objects
    however often the tree repeats them."""
    order, seen, stack = [], set(), [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            order.append(g)
        elif id(g) not in seen:
            seen.add(id(g))
            stack.append((g, True))
            stack.extend((c, False) for c in _children(g))
    return order


def free_vars(f: Formula) -> frozenset[str]:
    out: dict[int, frozenset[str]] = {}
    for g in _nodes(f):
        if isinstance(g, (TrueF, FalseF, Len)):
            fv = frozenset()
        elif isinstance(g, (Lab, Mod)):
            fv = frozenset({g.var})
        elif isinstance(g, (Eq, Lt)):
            fv = frozenset({g.left, g.right})
        elif isinstance(g, (And, Or)):
            fv = out[id(g.left)] | out[id(g.right)]
        elif isinstance(g, Not):
            fv = out[id(g.sub)]
        elif isinstance(g, (Exists, Forall)):
            fv = out[id(g.body)] - {g.var}
        else:
            raise InputError(f"not a formula: {g!r}")
        out[id(g)] = fv
    return out[id(f)]


def formula_stats(f: Formula) -> dict:
    """Descriptive statistics: variable names, modular-predicate usage, and
    the quantifier prefix when the formula is prenex.  Informational only;
    fragment membership is decided algebraically, never from the shape of
    one particular formula."""
    nodes = _nodes(f)
    names: set[str] = set()
    for g in nodes:
        if isinstance(g, (Lab, Mod, Exists, Forall)):
            names.add(g.var)
        elif isinstance(g, (Eq, Lt)):
            names.update((g.left, g.right))

    prefix = []
    matrix = f
    while isinstance(matrix, (Exists, Forall)):
        prefix.append("exists" if isinstance(matrix, Exists) else "forall")
        matrix = matrix.body
    blocks: list[str] | None
    if not any(isinstance(g, (Exists, Forall)) for g in _nodes(matrix)):
        blocks = [k for k, _ in itertools.groupby(prefix)]
    else:
        blocks = None
    return {
        "variables": sorted(names),
        "variable_count": len(names),
        "uses_modular_predicates": any(isinstance(g, (Mod, Len)) for g in nodes),
        "prenex_blocks": blocks,
    }


# ---------------------------------------------------------------------------
# Truth on a word

def eval_formula(f: Formula, word: Sequence[str]) -> bool:
    fv = free_vars(f)
    if fv:
        raise InputError(f"formula has free variables: {', '.join(sorted(fv))}")
    return _eval(f, tuple(word), {}, {})


def _eval(f: Formula, word: tuple, env: dict, known: dict) -> bool:
    """Truth of f under the positions env binds.  `known` holds the truth
    of the compound nodes already evaluated under this same env, by node
    identity, so a node that several parents share is evaluated once per
    binding of the variables above it; each binder starts an empty one."""
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
    value = known.get(id(f))
    if value is not None:
        return value
    if isinstance(f, And):
        value = _eval(f.left, word, env, known) and _eval(f.right, word, env, known)
    elif isinstance(f, Or):
        value = _eval(f.left, word, env, known) or _eval(f.right, word, env, known)
    elif isinstance(f, Not):
        value = not _eval(f.sub, word, env, known)
    elif isinstance(f, Exists):
        value = any(
            _eval(f.body, word, {**env, f.var: i}, {}) for i in range(1, len(word) + 1)
        )
    elif isinstance(f, Forall):
        value = all(
            _eval(f.body, word, {**env, f.var: i}, {}) for i in range(1, len(word) + 1)
        )
    else:
        raise InputError(f"not a formula: {f!r}")
    known[id(f)] = value
    return value


# ---------------------------------------------------------------------------
# Compilation to a DFA

def compile_formula(f: Formula, alphabet: Sequence[str], state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The minimal DFA of the sentence's models over the given alphabet.
    A formula with free variables, or with a label letter outside the
    alphabet, is an InputError, found by the renaming walk."""
    letters = sorted(set(alphabet))
    if not letters:
        raise InputError("empty alphabet")
    table = _Compiler(letters, state_cap).compile(_rename_apart(f, letters), ())
    return table_dfa(letters, minimal_table(table))


def formula_letters(f: Formula) -> set[str]:
    """Letters mentioned by label atoms anywhere in the formula."""
    return {g.letter for g in _nodes(f) if isinstance(g, Lab)}


def _rename_apart(f: Formula, letters: Sequence[str] | None = None) -> Formula:
    """The formula with every binder named by its nesting depth, v0 for an
    outermost quantifier, v1 for one directly inside it and so on, with
    equal subformulas shared.

    A binder's name is then the index of its variable in the compiler's
    frame, so a subformula's tables depend only on its own text and its
    depth.  Nodes are interned bottom-up on (type, fields, identities of
    the children), so alpha-equivalent subformulas at equal depth come back
    as one object, which the compiler's memo keys on.  A scope is the
    sequence of names the binders above a node bound; the walk remembers
    its result per (input node identity, scope), so an input node that
    several parents share, as `<->` shares its operands, is walked once
    per scope.

    The walk also checks the input.  A formula with free variables is an
    InputError naming all of them; after that, when `letters` is given, so
    is a label letter outside them (the least such letter is named)."""
    known = None if letters is None else set(letters)
    free: set[str] = set()
    foreign: set[str] = set()
    nodes: dict = {}                        # shape -> the one node of that shape
    done: dict[tuple, Formula] = {}         # (id(input node), scope) -> node
    scopes: list[tuple[dict, int]] = [({}, 0)]  # scope -> ({bound: depth name}, depth)
    inner_scope: dict[tuple, int] = {}      # (scope, bound name) -> scope

    def bound(env, var):
        name = env.get(var)
        if name is None:
            free.add(var)
            return var
        return name

    def walk(g, scope):
        key = (id(g), scope)
        out = done.get(key)
        if out is not None:
            return out
        env, depth = scopes[scope]
        # an atom is interned by its value, a compound node by its type,
        # bound name and the identities of its (interned) children; a
        # compound node is built from its parts only when its shape is new
        parts = None
        if isinstance(g, (TrueF, FalseF, Len)):
            shape = g
        elif isinstance(g, Lab):
            if known is not None and g.letter not in known:
                foreign.add(g.letter)
            shape = Lab(bound(env, g.var), g.letter)
        elif isinstance(g, Mod):
            shape = Mod(bound(env, g.var), g.modulus, g.residue)
        elif isinstance(g, (Eq, Lt)):
            shape = type(g)(bound(env, g.left), bound(env, g.right))
        elif isinstance(g, (And, Or)):
            parts = walk(g.left, scope), walk(g.right, scope)
            shape = (type(g), id(parts[0]), id(parts[1]))
        elif isinstance(g, Not):
            parts = (walk(g.sub, scope),)
            shape = (Not, id(parts[0]))
        elif isinstance(g, (Exists, Forall)):
            name = f"v{depth}"
            inner = inner_scope.setdefault((scope, g.var), len(scopes))
            if inner == len(scopes):
                scopes.append(({**env, g.var: name}, depth + 1))
            parts = name, walk(g.body, inner)
            shape = (type(g), name, id(parts[1]))
        else:
            raise InputError(f"not a formula: {g!r}")
        out = nodes.get(shape)
        if out is None:
            out = nodes[shape] = shape if parts is None else type(g)(*parts)
        done[key] = out
        return out

    out = walk(f, 0)
    if free:
        raise InputError(f"formula has free variables: {', '.join(sorted(free))}")
    if foreign:
        raise InputError(f"formula letter {min(foreign)!r} not in the alphabet")
    return out


# per connective: the product's accepting rule, the flag that decides it
# whatever the other operand, and the constant node of that flag
_PRODUCTS = {And: (operator.and_, False, FalseF), Or: (operator.or_, True, TrueF)}


class _Compiler:
    """Compiles subformulas to integer tables over marked letters.

    Under a frame (the variables of the enclosing quantifier scopes,
    outermost first) a marked letter is a base letter together with the set
    of frame variables marked at that position.  Column
    `a << len(frame) | mask` is letter index a with the variables frame[j]
    whose bit j is set in mask, so the variable a quantifier binds is the
    top bit of its body's columns.  Tables are those of `automata` (rows
    as Python lists, accepting flags as a list), with marked letters as
    columns.  Atoms and constants are built minimal; products, negations
    and erasures keep the tables they build, and only the body of an
    erasure goes through `automata.minimal_table`.  A product numbers one
    sink for the pairs an absorbing component decides.  An erasure takes
    one subset step per distinct (unmarked, marked) pair of its body's
    columns, keys its subsets by frozensets of (state, flag)
    pairs, drops the runs at absorbing rejecting states and numbers one
    sink for the subsets an absorbing accepting state decides; the
    subsets are numbered by `automata.determinize`.

    A table under a frame is exact on the words marking each frame variable
    exactly once (see the module docstring): the exactly-once rule is
    checked only where a quantifier erases its variable, and only for that
    variable, inside the erasure's subset construction.
    """

    def __init__(self, letters: list[str], cap: int):
        self.letters = letters
        self.cap = cap
        self._memo: dict[tuple[int, int], Table] = {}

    def _const(self, frame: tuple, accept: bool) -> Table:
        return [[0] * (len(self.letters) << len(frame))], [accept]

    def compile(self, f: Formula, frame: tuple) -> Table:
        """The table of f under the frame, exact on the words that mark
        each frame variable exactly once and arbitrary on other markings:
        complete and reachable from state 0, but minimal only for an atom
        or a constant.  It is remembered per (node identity, frame
        length): `_rename_apart` names binders by depth, so the frame is
        fixed by its length, and shares equal subformulas, so each one is
        compiled once per depth.  The lookup sits here, not in a wrapper,
        so that each formula level costs one Python frame."""
        key = (id(f), len(frame))
        out = self._memo.get(key)
        if out is not None:
            return out
        if isinstance(f, (TrueF, FalseF)):
            out = self._const(frame, isinstance(f, TrueF))
        elif isinstance(f, (Lab, Eq, Lt, Mod, Len)):
            out = self._atom(f, frame)
            if len(out[1]) > self.cap:
                raise self._over_cap()
        elif isinstance(f, (And, Or)):
            # an operand that is the constant deciding the product is the
            # result, and the other operand is not compiled: a constant node
            # is seen before either side is compiled, a one-state table of
            # that flag once it is
            accept, zero, deciding = _PRODUCTS[type(f)]
            left, right = f.left, f.right
            if type(left) is deciding or type(right) is deciding:
                out = self._const(frame, zero)
            else:
                out = self.compile(left, frame)
                if len(out[1]) > 1 or out[1][0] != zero:
                    right = self.compile(right, frame)
                    if len(right[1]) > 1 or right[1][0] != zero:
                        out = product_table(out, right, accept, self.cap)
                    else:
                        out = right
        elif isinstance(f, Not):
            # the complement of a complete table
            out = _negated(self.compile(f.sub, frame))
        elif isinstance(f, (Exists, Forall)):
            # (forall x f) is compiled as (not (exists x (not f)))
            inner = frame + (f.var,)
            width = len(self.letters) << len(inner)
            if width > MAX_MARKED_LETTERS:
                raise CapError(
                    f"marked-alphabet cap exceeded ({MAX_MARKED_LETTERS}): "
                    f"{width} marked letters under {len(inner)} nested quantifiers"
                )
            # the subset construction is the one step whose cost grows
            # exponentially with its input, so its body is minimal
            body = minimal_table(self.compile(f.body, inner))
            if isinstance(f, Forall):
                body = _negated(body)
            out = self._project(body, frame)
            if isinstance(f, Forall):
                out = _negated(out)
        else:
            raise InputError(f"not a formula: {f!r}")
        self._memo[key] = out
        return out

    def _over_cap(self) -> CapError:
        return CapError(f"state cap exceeded ({self.cap}) while compiling")

    def _atom(self, f: Formula, frame: tuple) -> Table:
        """The atom's automaton, exact on validly marked words: it decides
        at the first mark of its variables.  The waiting states come first;
        where the atom is decided for good, it moves to an absorbing state,
        accepting or rejecting.  Every state is reachable from state 0, and
        no two states accept the same marked words, so the table is
        minimal as built: a `len` residue cycle has one accepting state,
        and a `mod` waiting state is told apart by how many letters it
        reads before a mark is a hit."""
        width = len(self.letters) << len(frame)

        def marked(var):
            bit = 1 << frame.index(var)
            return [c & bit != 0 for c in range(width)]

        if isinstance(f, (Len, Mod)) and f.modulus > self.cap:
            # the residues stay pairwise distinguishable, so its table
            # would exceed the cap anyway
            raise self._over_cap()
        if isinstance(f, Len):
            n = f.modulus
            return [[(q + 1) % n] * width for q in range(n)], [q == f.residue % n for q in range(n)]
        if isinstance(f, Mod):
            n, x = f.modulus, marked(f.var)
            waiting = []
            for q in range(n):
                on_mark, step = (n if (q + 1 - f.residue) % n == 0 else n + 1), (q + 1) % n
                waiting.append([on_mark if m else step for m in x])
            return self._decided(waiting)
        if isinstance(f, Lab):
            letter, shift = self.letters.index(f.letter), len(frame)
            return self._decided([[(1 if c >> shift == letter else 2) if m else 0
                                   for c, m in enumerate(marked(f.var))]])
        if isinstance(f, Eq):
            if f.left == f.right:
                return self._const(frame, True)
            pairs = list(zip(marked(f.left), marked(f.right)))
            return self._decided([[1 if x and y else 2 if x or y else 0 for x, y in pairs]])
        if isinstance(f, Lt):
            if f.left == f.right:
                return self._const(frame, False)
            pairs = list(zip(marked(f.left), marked(f.right)))
            # state 0: neither seen; state 1: the left one seen
            return self._decided([[3 if y else 1 if x else 0 for x, y in pairs],
                                  [2 if y else 1 for _, y in pairs]])
        raise InputError(f"not an atomic formula: {f!r}")

    @staticmethod
    def _decided(waiting: list) -> Table:
        """The m waiting rows, then the accepting absorbing state m and,
        only if some waiting row moves to it, the rejecting one m + 1: over
        one letter, `(lab x a)` and `(mod x 1 1)` never reject."""
        m, width = len(waiting), len(waiting[0])
        size = m + 1 + any(m + 1 in row for row in waiting)
        return waiting + [[q] * width for q in range(m, size)], [q == m for q in range(size)]

    def _project(self, t: Table, frame: tuple) -> Table:
        """Erase the innermost variable x, keeping only the runs that mark
        it exactly once, and determinize.  The subsets are over pairs
        (state, flag), pair 2 * state + flag, where the flag says x is
        already marked: an unmarked column keeps the flag, a marked one
        sets it, or drops the run when it is set.  A subset accepts when
        one of its pairs is flagged at a final state.  Outer column c reads
        the inner column `lo` (x unmarked) and `lo | top` (marked); outer
        columns that read equal (unmarked, marked) column contents share
        one subset step.  So `automata.determinize` numbers the subsets
        with one successor per distinct column pair, the steps in the order
        of their first outer column, and each row is spread over the outer
        columns afterwards.  A subset is keyed by the frozenset of its
        pairs; more subsets than the cap is a CapError.

        Runs whose future is known are not numbered.  At an absorbing
        rejecting state no run accepts again, so both its pairs are dropped
        like a second mark.  At an absorbing accepting state u the pair
        (u, 1) keeps accepting along the unmarked columns, so a subset
        holding one accepts every word: all such subsets are one accepting
        sink, the subset {(u0, 1)} of the least such u0, which steps to
        itself.  (u, 0) still needs its mark and is kept as it is.  Both
        are quotients by language equality, so the minimal table is the
        same."""
        rows, finals = t
        k = len(frame)
        top = 1 << k
        columns = list(zip(*rows))
        dropped = 2 * len(finals)       # a run marking x twice or gone dead
        dead = absorbing_states(t, False)
        alive = absorbing_states(t, True)
        full = 2 * min(alive) + 1 if alive else dropped  # the sink's one pair
        sink = frozenset((full,))
        # what each pair is kept as: dropped, the sink's pair or itself
        kept = [dropped if r in dead else full if flag and r in alive else 2 * r + flag
                for r in range(len(finals)) for flag in (0, 1)]
        steps: dict[tuple, int] = {}    # (unmarked, marked) column -> its step
        spread = []                     # outer column -> its step
        for c in range(len(self.letters) << k):
            lo = (c >> k << (k + 1)) | (c & (top - 1))
            spread.append(steps.setdefault((columns[lo], columns[lo | top]), len(steps)))
        # per step, the successor of pair p when x is unmarked and when marked
        moves = [([kept[2 * r + flag] for r in unmarked for flag in (0, 1)],
                  [v for r in marked for v in (kept[2 * r + 1], dropped)])
                 for unmarked, marked in steps]
        del columns, steps              # the body's columns, copied, are not read again
        flagged_finals = {2 * q + 1 for q, f in enumerate(finals) if f}

        def successors(subset):
            for unmarked, marked in moves:
                nxt = set(map(unmarked.__getitem__, subset))
                nxt.update(map(marked.__getitem__, subset))
                nxt.discard(dropped)
                yield sink if full in nxt else frozenset(nxt)

        table, accepting = determinize(
            frozenset() if 0 in dead else frozenset((0,)), successors,
            lambda subset: not flagged_finals.isdisjoint(subset), self.cap)
        for i, row in enumerate(table):  # in place: each step row is freed as it is spread
            table[i] = list(map(row.__getitem__, spread))
        return table, accepting


def _negated(t: Table) -> Table:
    rows, finals = t
    return rows, [not f for f in finals]

"""Complete deterministic finite automata, plus the position-residue decoration.

Serialized letters are strings ("a", or "a@2" for the letter a carrying
position residue 2); the algorithms only need letters to be hashable and
mutually sortable.

A `Dfa` is its table.  A table is a pair (rows, finals): a list of rows,
one per state, each a list or tuple of successor states by letter, and a
list of accepting flags, with state 0 as the start.  A `Dfa` holds the
letters in sorted order as its columns and the canonical table of its
language's automaton: every state reachable, numbered breadth first with
the columns in order.  `table_dfa` renumbers any table so, keeping the
states reachable from 0; it is the one way a table becomes a `Dfa`.  State
names exist only at the edges: `make_dfa` and `parse_dfa` read any names
and table them, and `dfa_to_doc` names the states q0, q1, ...
`minimal_table` refines a table by Moore's algorithm (one column at a
time, over the distinct columns), and `product_table` builds the pair
automaton over the pairs reachable from the start (one Python loop over
the pairs, refused above a state cap), with every pair that an absorbing
component decides numbered as one sink.  An absorbing state
(`absorbing_states`) is one whose row holds only itself: it accepts every
word or none, which its row shows with no Moore round.  So a product, and
an erasure in the formula compiler, numbers one state for all the pairs
or subsets whose language such a state decides.  `minimize`, the Boolean
operations, determinization, the position-residue decoration (`decorate`,
whose residue product is written straight into a table over the letters'
decorated copies), `monoid.transition_monoid` and the formula compiler
all go through these.

`determinize` is the one subset construction: from a start subset, a
successor function and an accepting test, over any hashable subsets, it
returns the subset table, which its four callers (`regex_to_dfa`,
`reverse`, `concat_letter` and the formula compiler's erasure) minimise
and renumber themselves.  A pattern is compiled on its position automaton
(Glushkov 1961; Berry and Sethi 1986), which has no ε-moves, held in
Python int bit masks: position 0 is the start and position i the i-th
letter occurrence of the pattern, `first`, `last` and `follow[p]` are
masks of positions, and a subset S steps on the letter a to (OR of
follow[p] for p in S) & the mask of the positions that read a.  Each
subset of positions matches one ε-closed subset of Thompson's ε-NFA of
the pattern, as each Thompson letter target is entered only by its letter
edge, so the two constructions reach the same number of subsets and the
same patterns reach the state cap.  `reverse` and `concat_letter`
determinize frozensets of states over per-state, per-column sets of
states, read off the rows.

Residues of positions and lengths follow the 1..n convention throughout:
"i mod n" means the unique k in {1, ..., n} congruent to i.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import add, and_, itemgetter, mul, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import CapError, InputError

Word = tuple  # tuple of letters

DEFAULT_STATE_CAP = 200_000
# Most cells, bits of follow masks, that a pattern's subset construction
# may OR together: each subset ORs the follow masks of its positions, one
# bit per position each, so the work grows with the positions and the
# subsets both.  The patterns of the tests, the state cap's included, OR
# under 2^26.
MAX_FOLLOW_CELLS = 1 << 28


def mod1(i: int, n: int) -> int:
    """The unique k in {1, ..., n} with k congruent to i mod n."""
    return (i - 1) % n + 1


class DecoratedLetter(NamedTuple):
    base: str
    residue: int

    @property
    def text(self) -> str:
        return f"{self.base}@{self.residue}"

    @classmethod
    def parse(cls, text: str) -> "DecoratedLetter":
        base, sep, res = text.rpartition("@")
        if not sep or not base or not res.isdigit():
            raise InputError(f"not a decorated letter: {text!r}")
        return cls(base, int(res))


@dataclass(frozen=True, eq=False)
class Dfa:
    """A complete DFA as its canonical table.  `alphabet` holds the letters
    in sorted order, one column each; `rows[q][c]` is the successor of
    state q on the letter `alphabet[c]`, and `accepting[q]` its flag.
    State 0 is the start, every state is reachable, and the states are
    numbered breadth first with the columns in order (`table_dfa`)."""

    alphabet: tuple
    rows: tuple
    accepting: tuple

    @cached_property
    def columns(self) -> dict:
        """Each letter's column."""
        return {a: c for c, a in enumerate(self.alphabet)}

    def run(self, word: Iterable) -> int:
        q, columns = 0, self.columns
        for a in word:
            if a not in columns:
                raise InputError(f"letter {a!r} outside alphabet")
            q = self.rows[q][columns[a]]
        return q

    def accepts(self, word: Iterable) -> bool:
        return self.accepting[self.run(word)]

    # Read-only named views, for readers outside the package that predate
    # the table; the package itself reads only the table.
    states = property(lambda self: range(len(self.rows)))
    initial = property(lambda self: 0)

    @cached_property
    def finals(self) -> frozenset:
        return frozenset(compress(count(), self.accepting))

    @cached_property
    def delta(self) -> dict:
        return {(q, a): t for q, row in enumerate(self.rows) for a, t in zip(self.alphabet, row)}


def make_dfa(alphabet, states, initial, finals, transitions) -> Dfa:
    """The Dfa of a transition mapping {(state, letter): state} over any
    hashable state names: the table of the part reachable from `initial`."""
    alphabet, states, finals = tuple(alphabet), tuple(states), frozenset(finals)
    delta = dict(transitions)
    if not alphabet:
        raise InputError("empty alphabet")
    if len(set(alphabet)) != len(alphabet):
        raise InputError("duplicate letters in alphabet")
    if not states or len(set(states)) != len(states):
        raise InputError("states must be nonempty and unique")
    state_set = set(states)
    if initial not in state_set:
        raise InputError("initial state not among states")
    if not finals <= state_set:
        raise InputError("final states not among states")
    expected = {(q, a) for q in states for a in alphabet}
    if set(delta) != expected:
        missing = expected - set(delta)
        extra = set(delta) - expected
        if missing:
            q, a = sorted(missing, key=repr)[0]
            raise InputError(f"incomplete delta: no transition from {q!r} on {a!r}")
        q, a = sorted(extra, key=repr)[0]
        raise InputError(f"transition from unknown state/letter pair ({q!r}, {a!r})")
    for t in delta.values():
        if t not in state_set:
            raise InputError(f"transition target {t!r} not among states")
    letters = sorted(alphabet)
    order = [initial, *(q for q in states if q != initial)]
    index = {q: i for i, q in enumerate(order)}
    rows = [[index[delta[(q, a)]] for a in letters] for q in order]
    return table_dfa(letters, (rows, [q in finals for q in order]))


# ---------------------------------------------------------------------------
# JSON documents

_DFA_FIELDS = ("alphabet", "states", "initial", "finals", "transitions")


def parse_dfa(text: str) -> Dfa:
    """Parse the JSON DFA document described in docs/formats.md."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("DFA document must be a JSON object")
    for field in _DFA_FIELDS:
        if field not in doc:
            raise InputError(f"missing field {field!r}")
    for field in doc:
        if field not in _DFA_FIELDS:
            raise InputError(f"unexpected field {field!r}")
    alphabet = doc["alphabet"]
    states = doc["states"]
    if not isinstance(alphabet, list) or not all(isinstance(a, str) and a for a in alphabet):
        raise InputError("alphabet must be a list of nonempty strings")
    if not isinstance(states, list) or not all(isinstance(q, str) for q in states):
        raise InputError("states must be a list of strings")
    finals = doc["finals"]
    if not isinstance(finals, list) or not all(isinstance(q, str) for q in finals):
        raise InputError("finals must be a list of strings")
    state_set = set(states)
    letter_set = set(alphabet)
    for q in finals:
        if q not in state_set:
            raise InputError(f"unknown state {q!r} in finals")
    initial = doc["initial"]
    if not isinstance(initial, str) or initial not in state_set:
        raise InputError(f"unknown initial state {initial!r}")
    delta = {}
    if not isinstance(doc["transitions"], list):
        raise InputError("transitions must be a list of [src, letter, dst] triples")
    for item in doc["transitions"]:
        if not (isinstance(item, list) and len(item) == 3
                and all(isinstance(v, str) for v in item)):
            raise InputError(f"bad transition entry: {item!r}")
        src, letter, dst = item
        if src not in state_set:
            raise InputError(f"unknown state {src!r} in transition")
        if dst not in state_set:
            raise InputError(f"unknown state {dst!r} in transition")
        if letter not in letter_set:
            raise InputError(f"unknown letter {letter!r} in transition")
        if (src, letter) in delta:
            raise InputError(f"duplicate transition from {src!r} on {letter!r}")
        delta[(src, letter)] = dst
    return make_dfa(alphabet, states, initial, finals, delta)


def dfa_to_doc(d: Dfa) -> dict:
    """The document of the table, its states named q0, q1, ..."""
    names = [f"q{q}" for q in range(len(d.rows))]
    return {
        "alphabet": list(d.alphabet),
        "states": names,
        "initial": "q0",
        "finals": [q for q, f in zip(names, d.accepting) if f],
        "transitions": [[q, a, names[t]] for q, row in zip(names, d.rows)
                        for a, t in zip(d.alphabet, row)],
    }


def dfa_to_json(d: Dfa) -> str:
    return json.dumps(dfa_to_doc(d), indent=2)


# ---------------------------------------------------------------------------
# Tables and minimization

Table = tuple  # (rows, finals): see the module docstring


def table_dfa(letters, t: Table) -> Dfa:
    """The Dfa of the table's states reachable from state 0, renumbered
    breadth first with the columns (the letters, sorted) in order: the one
    way a table becomes a Dfa.  Two minimal tables of one language give
    equal Dfas."""
    rows, finals = t
    order = [0]
    index = {0: 0}
    for q in order:
        for r in rows[q]:
            if r not in index:
                index[r] = len(order)
                order.append(r)
    get = index.__getitem__
    return Dfa(tuple(letters), tuple(tuple(map(get, rows[q])) for q in order),
               tuple(finals[q] for q in order))


def minimal_table(t: Table) -> Table:
    """Moore refinement, one column at a time.  The blocks start as the
    accepting and the rejecting states.  A column splits them by the pair
    (block of the state, block of its successor in that column), keyed as
    the int block * n + successor block, whose first term is kept until the
    blocks change.  A column that split is tried again before the next
    one, and the refinement is stable once every distinct column in turn
    splits nothing.  Each step is a few C-level passes over the states
    (`itemgetter`, `map`, `dict.fromkeys`), with no tuple per state.
    Blocks are numbered by first occurrence, so state 0 stays the start
    and two tables of one language over one column order give equal
    quotients.  States the table cannot reach from state 0 are kept, each
    in the block of the states it is equivalent to."""
    rows, finals = t
    n = len(finals)
    start = finals[0]
    block = [0 if f == start else 1 for f in finals]
    count = 1 + (1 in block)
    if count == n:
        return t
    # successor blocks in one column, a tuple (n > 1) read by one C call
    successors = [itemgetter(*col) for col in dict.fromkeys(zip(*rows))]
    scaled = list(map(mul, block, repeat(n)))
    quiet = c = 0                       # columns in a row that split nothing
    while count < n and quiet < len(successors):
        keys = list(map(add, scaled, successors[c](block)))
        ids = dict.fromkeys(keys)
        if len(ids) == count:
            quiet += 1
            c = (c + 1) % len(successors)
        else:
            count, quiet = len(ids), 0
            block = list(map(dict(zip(ids, range(count))).__getitem__, keys))
            scaled = list(map(mul, block, repeat(n)))
    if count == n:
        return t
    least = dict(zip(reversed(block), range(n - 1, -1, -1)))  # block -> its first state
    reps = list(map(least.__getitem__, range(count)))
    get = block.__getitem__
    return [list(map(get, rows[q])) for q in reps], [finals[q] for q in reps]


def absorbing_states(t: Table, flag: bool) -> set:
    """The states of the table whose rows are all self-loops and whose
    accepting flag is `flag`: each accepts every word or none."""
    rows, finals = t
    return {q for q, row in enumerate(rows)
            if finals[q] == flag and row[0] == q and row.count(q) == len(row)}


def product_table(t1: Table, t2: Table, accept, cap: int) -> Table:
    """The pair automaton over the pairs reachable from (0, 0), with
    `accept` (`operator.and_` or `operator.or_`) of the two accepting
    flags.  A pair with an absorbing component at the flag z =
    accept(False, True), rejecting under `and_` and accepting under `or_`,
    accepts every word or none, whatever the other component, so all such
    pairs are one sink state: its row is all self-loops and its flag z.
    One breadth-first loop over the pairs: each (pair, column) is one dict
    probe, and a new pair (or the sink, the first time a pair maps to it)
    takes the next number, so state 0 is (0, 0) and the states are
    numbered in the order they are found; when (0, 0) itself is such a
    pair, the sink is state 0 and the only state.  The result is a
    quotient of the plain pair automaton by language equality, numbered in
    the order of its classes' first pairs, so Moore gives the same minimal
    table.  Tables that are not minimal may hold several absorbing states
    of one flag; all of them collapse.  More states than `cap` (the sink
    counted once) is a CapError."""
    (rows1, f1), (rows2, f2) = t1, t2
    width = len(rows1[0])
    zero = accept(False, True)
    sunk1, sunk2 = absorbing_states(t1, zero), absorbing_states(t2, zero)
    sink = 0 if 0 in sunk1 or 0 in sunk2 else None
    pairs = [None if sink == 0 else (0, 0)]     # None stands for the sink
    ids = {(0, 0): 0}
    rows = []
    for state in pairs:
        if state is None:
            rows.append([sink] * width)
        else:
            row = []
            for pair in zip(rows1[state[0]], rows2[state[1]]):
                j = ids.get(pair)
                if j is None:
                    if pair[0] in sunk1 or pair[1] in sunk2:
                        if sink is None:
                            sink = len(pairs)
                            pairs.append(None)
                        j = ids[pair] = sink
                    else:
                        j = ids[pair] = len(pairs)
                        pairs.append(pair)
                row.append(j)
            rows.append(row)
        if len(pairs) > cap:
            raise CapError(f"state cap exceeded ({cap}) by the reachable pairs of a product")
    return rows, [zero if state is None else accept(f1[state[0]], f2[state[1]])
                  for state in pairs]


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA of the language, canonically numbered: equal
    languages give equal tables and identical documents byte for byte."""
    return table_dfa(d.alphabet, minimal_table((d.rows, d.accepting)))


def equivalent(d1: Dfa, d2: Dfa) -> tuple[bool, Word | None]:
    """Language equality, with a shortest (then lexicographically least)
    distinguishing word when the languages differ."""
    _require_same_alphabet(d1, d2)
    rows1, rows2 = d1.rows, d2.rows
    seen = {(0, 0): ()}
    queue = deque(seen)
    while queue:
        q1, q2 = pair = queue.popleft()
        word = seen[pair]
        if d1.accepting[q1] != d2.accepting[q2]:
            return False, word
        for a, nxt in zip(d1.alphabet, zip(rows1[q1], rows2[q2])):
            if nxt not in seen:
                seen[nxt] = word + (a,)
                queue.append(nxt)
    return True, None


def _require_same_alphabet(d1: Dfa, d2: Dfa):
    if d1.alphabet != d2.alphabet:
        raise InputError(
            f"alphabet mismatch: {list(d1.alphabet)!r} vs {list(d2.alphabet)!r}"
        )


# ---------------------------------------------------------------------------
# Boolean operations

def complement(d: Dfa) -> Dfa:
    return table_dfa(d.alphabet, minimal_table((d.rows, [not f for f in d.accepting])))


def _pair_product(d1: Dfa, d2: Dfa, accept) -> Dfa:
    """The minimal product automaton of two DFAs over one alphabet."""
    _require_same_alphabet(d1, d2)
    t1, t2 = (d1.rows, d1.accepting), (d2.rows, d2.accepting)
    return table_dfa(d1.alphabet, minimal_table(product_table(t1, t2, accept, DEFAULT_STATE_CAP)))


def intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return _pair_product(d1, d2, and_)


def union(d1: Dfa, d2: Dfa) -> Dfa:
    return _pair_product(d1, d2, or_)


def shortest_accepted(d: Dfa) -> Word | None:
    """A shortest accepted word (lexicographically least among those), or None."""
    seen = {0: ()}
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        if d.accepting[q]:
            return seen[q]
        for a, t in zip(d.alphabet, d.rows[q]):
            if t not in seen:
                seen[t] = seen[q] + (a,)
                queue.append(t)
    return None


# ---------------------------------------------------------------------------
# Subset construction (regex, reversal, concatenation)

def determinize(start, successors, accepting, cap: int = DEFAULT_STATE_CAP) -> Table:
    """The table of the subsets reachable from `start`, numbered in the
    order they are found: `successors(subset)` gives the successor
    subsets, one per column in order, and `accepting(subset)` is True when
    the subset accepts.  Subsets are any hashable values.  More subsets
    than the cap is a CapError."""
    subsets = [start]
    index = {start: 0}
    rows = []
    for subset in subsets:
        row = []
        for nxt in successors(subset):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(subsets)
                subsets.append(nxt)
                if len(subsets) > cap:
                    raise CapError(f"state cap exceeded ({cap}) during determinization")
            row.append(j)
        rows.append(row)
    return rows, list(map(accepting, subsets))


def _determinize_moves(letters, moves: list, starts, finals, cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The minimal DFA of `determinize` over frozensets of states, where
    `moves[q][c]` is the set of the states that q leads to in column c."""
    finals = frozenset(finals)
    columns = range(len(letters))

    def successors(subset):
        return [frozenset().union(*[moves[q][c] for q in subset]) for c in columns]

    return table_dfa(letters, minimal_table(determinize(
        frozenset(starts), successors, lambda subset: not finals.isdisjoint(subset), cap)))


def reverse(d: Dfa) -> Dfa:
    """The mirror-image language."""
    moves = [[set() for _ in d.alphabet] for _ in d.rows]
    for q, row in enumerate(d.rows):
        for c, t in enumerate(row):
            moves[t][c].add(q)
    return _determinize_moves(d.alphabet, moves, compress(count(), d.accepting), {0})


def concat_letter(d1: Dfa, letter, d2: Dfa, cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The language L(d1) . letter . L(d2)."""
    _require_same_alphabet(d1, d2)
    if letter not in d1.columns:
        raise InputError(f"letter {letter!r} outside alphabet")
    shift = len(d1.rows)  # d2's state q is state shift + q
    moves = [[{t} for t in row] for row in d1.rows]
    moves += [[{shift + t} for t in row] for row in d2.rows]
    for q in compress(count(), d1.accepting):
        moves[q][d1.columns[letter]].add(shift)
    return _determinize_moves(d1.alphabet, moves, {0},
                              {shift + q for q in compress(count(), d2.accepting)}, cap)


# ---------------------------------------------------------------------------
# Regular expression input
#
# Grammar (documented in docs/formats.md):
#   alt    := concat ('|' concat)*
#   concat := repeat*          an empty concatenation denotes the empty word
#   repeat := atom '*'*
#   atom   := letter | '(' alt ')'
# so "()" denotes the empty word. Letters are single characters other than
# the metacharacters; whitespace is ignored.  Groups may nest at most
# MAX_PATTERN_DEPTH deep.  Concatenations, alternations and runs of stars
# are read in loops, so only group nesting makes the parse recurse.

_META = set("()|*")
MAX_PATTERN_DEPTH = 100


def _bits(mask: int):
    """The set bits of mask, lowest first, as bit indices."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def regex_to_dfa(pattern: str, alphabet: Sequence[str] | None = None) -> Dfa:
    """Compile a pattern to the minimal DFA over the union of the pattern's
    letters and the optionally declared alphabet, by the subset
    construction on its position automaton (see the module docstring).

    Each subset ORs the follow masks of its positions, P bits each for P
    positions (the start included), so all the subsets of a pattern may
    OR at most MAX_FOLLOW_CELLS // P of them: more raise CapError with
    their own message, as more than DEFAULT_STATE_CAP subsets do."""
    tokens = [c for c in pattern if not c.isspace()]
    pos = 0
    depth = 0  # groups open at pos
    follow = [0]  # follow[p]: the positions that may come right after position p
    reads = {}  # letter -> the positions that read it

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    # Each parse returns (first, last, nullable) of what it read: the
    # positions that may begin and end a word of it, and whether it
    # matches the empty word.

    def parse_alt():
        nonlocal pos
        first, last, nullable = parse_concat()
        while peek() == "|":
            pos += 1
            f, l, n = parse_concat()
            first, last, nullable = first | f, last | l, nullable or n
        return first, last, nullable

    def parse_concat():
        parts = []
        while peek() is not None and peek() not in ")|":
            parts.append(parse_repeat())
        # right to left, `first` is the first mask of the parts after the
        # current one: what may follow the current part's last positions
        first = last = 0
        nullable = True
        for f, l, n in reversed(parts):
            if first:
                for p in _bits(l):
                    follow[p] |= first
            if nullable:
                last |= l
            first = first | f if n else f
            nullable = nullable and n
        return first, last, nullable

    def parse_repeat():
        nonlocal pos
        first, last, nullable = parse_atom()
        if peek() != "*":
            return first, last, nullable
        while peek() == "*":
            pos += 1
        for p in _bits(last):
            follow[p] |= first
        return first, last, True

    def parse_atom():
        nonlocal pos, depth
        c = peek()
        if c == "(":
            if depth == MAX_PATTERN_DEPTH:
                raise InputError(
                    f"pattern groups nested deeper than {MAX_PATTERN_DEPTH} at offset {pos}")
            pos += 1
            depth += 1
            group = parse_alt()
            depth -= 1
            if peek() != ")":
                raise InputError(f"unbalanced parenthesis in pattern at offset {pos}")
            pos += 1
            return group
        if c is None or c in _META:
            raise InputError(f"unexpected {c!r} in pattern at offset {pos}")
        pos += 1
        bit = 1 << len(follow)
        follow.append(0)
        reads[c] = reads.get(c, 0) | bit
        return bit, bit, False

    follow[0], last, nullable = parse_alt()
    if pos != len(tokens):
        raise InputError(f"trailing input in pattern at offset {pos}")
    letters = sorted(set(reads).union(alphabet or ()))
    if not letters:
        raise InputError("pattern uses no letters and no alphabet was declared")
    masks = [reads.get(a, 0) for a in letters]
    finals = last | nullable  # the start, position 0, accepts when nullable
    limit = MAX_FOLLOW_CELLS // len(follow)  # follow masks the subsets may OR
    ored = 0

    def successors(subset):
        nonlocal ored
        ored += subset.bit_count()
        if ored > limit:
            raise CapError(f"pattern follow cap exceeded (more than {limit} follow masks of "
                           f"{len(follow)} cells, at most {MAX_FOLLOW_CELLS} cells)")
        after = 0
        for p in _bits(subset):
            after |= follow[p]
        return [after & m for m in masks]

    return table_dfa(letters, minimal_table(
        determinize(1, successors, lambda subset: bool(subset & finals))))


# ---------------------------------------------------------------------------
# Position-residue decoration

def decorated_letters(alphabet, n: int) -> list[str]:
    return sorted(DecoratedLetter(a, i).text for a in alphabet for i in range(1, n + 1))


def decorate(d: Dfa, n: int) -> Dfa:
    """The language of decorated words of L: the image of L under the
    residue decoration starting at offset 0.  The residue product is built
    as a table over d's table: state q n + r is the pair (q, r), r the
    prefix length mod n, and the last state is a sink for words whose
    residues are inconsistent with their positions.  Its columns are the
    decorated letters in sorted order, as `decorated_letters` lists them;
    one Moore run (`minimal_table`) gives the canonical minimal DFA."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    # the decorated letters, sorted, each with its base column and residue mod n
    columns = sorted((DecoratedLetter(a, r).text, b, r % n)
                     for b, a in enumerate(d.alphabet) for r in range(1, n + 1))
    texts = [text for text, _, _ in columns]
    by_residue = [[] for _ in range(n)]  # [r]: (column, base column) read after r letters
    for c, (_, b, r) in enumerate(columns):
        by_residue[r].append((c, b))
    sink = len(d.rows) * n
    table = []
    for row in d.rows:
        for r in range(n):
            out = [sink] * len(texts)
            nxt = (r + 1) % n
            for c, b in by_residue[nxt]:
                out[c] = row[b] * n + nxt
            table.append(out)
    table.append([sink] * len(texts))
    accepting = [f for f in d.accepting for _ in range(n)] + [False]
    return table_dfa(texts, minimal_table((table, accepting)))


def _residue_reach(d: Dfa, n: int) -> set:
    """The pairs (q, r) such that some word of length congruent to r mod n
    leads from the start to q.  More than DEFAULT_STATE_CAP possible pairs
    raise CapError."""
    if n < 1:
        raise InputError("modulus must be at least 1")
    if len(d.rows) * n > DEFAULT_STATE_CAP:
        raise CapError(
            f"modulus {n} on {len(d.rows)} states exceeds the state cap "
            f"({DEFAULT_STATE_CAP} state and residue pairs)")
    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        q, r = queue.popleft()
        r = (r + 1) % n
        for t in d.rows[q]:
            if (t, r) not in seen:
                seen.add((t, r))
                queue.append((t, r))
    return seen


def length_residues(d: Dfa, n: int) -> frozenset[int]:
    """All residues (1..n convention) of lengths of words in L."""
    return frozenset(mod1(r, n) for q, r in _residue_reach(d, n) if d.accepting[q])


def decorated_alphabet(d: Dfa, n: int) -> frozenset[str]:
    """The decorated letters occurring in some decorated word of L: a at
    residue r+1 wherever a leads from a pair (q, r) reached by the prefix
    to a state from which a final state is reachable."""
    reach = _residue_reach(d, n)
    back = [[] for _ in d.rows]
    for q, row in enumerate(d.rows):
        for t in row:
            back[t].append(q)
    co = set(compress(count(), d.accepting))
    queue = deque(co)
    while queue:
        for p in back[queue.popleft()]:
            if p not in co:
                co.add(p)
                queue.append(p)
    return frozenset(
        DecoratedLetter(a, mod1(r + 1, n)).text
        for q, r in reach for a, t in zip(d.alphabet, d.rows[q]) if t in co
    )

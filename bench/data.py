"""Hand-written inputs and reference answers for the benchmark.

These mirror the acceptance suite's example matrix, defining sentences and
expression suite.  The benchmark keeps its own copy so that its inputs do
not move when the tests are reorganised; every reference here is written
by hand, not computed by the code under test.
"""

from fragcheck.modprod import CodetProd, DetProd, Union, make_base

T, F = True, False

# name, pattern, alphabet or "complement", verdicts in FRAGMENTS order:
# fo_lt fo2_lt s2_lt p2_lt d2_lt fo_mod fo2_qda s2_mod p2_mod d2_mod fo2_new
EXAMPLES = [
    ("odd-double", "((a|b)(a|b))*(aa|bb)(a|b)*", None,
     (T, F, F, F, F, T, F, T, F, F, F)),
    ("factor-aa", "(a|b)*aa(a|b)*", None,
     (T, F, T, F, F, T, F, T, F, F, F)),
    ("any-double", "(a|b)*(aa|bb)(a|b)*", None,
     (T, F, T, F, F, T, T, T, T, T, T)),
    ("letter-change", "(a|b)*(ab|ba)(a|b)*", None,
     (T, T, T, T, T, T, T, T, T, T, T)),
    ("bc-blocks", "(bc)*", None,
     (T, F, F, T, F, T, T, T, T, T, T)),
    ("double-or-bc", "(a|b)*(aa|bb)(a|b)*|(bc)*", ["a", "b", "c"],
     (T, F, F, F, F, T, T, T, T, T, T)),
    ("co-odd-double", "((a|b)(a|b))*(aa|bb)(a|b)*", "complement",
     (T, F, F, F, F, T, F, F, T, F, F)),
    ("co-factor-aa", "(a|b)*aa(a|b)*", "complement",
     (T, F, F, T, F, T, F, F, T, F, F)),
]


def _adjacent(p, q):
    return f"(and (suc x y) (and (lab x {p}) (lab y {q})))"


_B_FIRST = "(forall z (or (lab z b) (exists x (< x z))))"
_C_LAST = "(forall z (or (lab z c) (exists x (< z x))))"
_BC = "(and (< x y) (and (lab x b) (lab y c)))"
_CB = "(and (< x y) (and (lab x c) (lab y b)))"

# name, formula document (alphabet header plus sentence), reference regex
SENTENCES = [
    ("odd-double direct",
     "(alphabet a b) (exists x (exists y (and (mod x 2 1) "
     f"(or {_adjacent('a', 'a')} {_adjacent('b', 'b')}))))",
     "((a|b)(a|b))*(aa|bb)(a|b)*"),
    ("factor-aa direct",
     f"(alphabet a b) (exists x (exists y {_adjacent('a', 'a')}))",
     "(a|b)*aa(a|b)*"),
    ("any-double direct",
     f"(alphabet a b) (exists x (exists y (or {_adjacent('a', 'a')} {_adjacent('b', 'b')})))",
     "(a|b)*(aa|bb)(a|b)*"),
    ("any-double via position parity",
     "(alphabet a b) (exists x (exists y (and (mod x 2 1) (and (mod y 2 2)"
     " (or (and (lab x a) (lab y a)) (and (lab x b) (lab y b)))))))",
     "(a|b)*(aa|bb)(a|b)*"),
    ("letter-change via both letters",
     "(alphabet a b) (exists x (exists y (and (lab x a) (lab y b))))",
     "(a|b)*(ab|ba)(a|b)*"),
    ("bc-blocks by neighbours",
     f"(alphabet b c) (and {_B_FIRST} (and {_C_LAST}"
     f" (forall x (forall y (-> (suc x y) (or {_BC} {_CB}))))))",
     "(bc)*"),
    ("bc-blocks by position parity",
     "(alphabet b c) (and (len 2 2) (forall x (and (lab x (b c)) (<-> (mod x 2 1) (lab x b)))))",
     "(bc)*"),
]

_ANY3 = frozenset({"a", "b", "c"})
_ANY2 = frozenset({"a", "b"})
_BC_BASE = make_base([{"b"}, {"c"}])
_CB_BASE = make_base([{"c"}, {"b"}])
_EVEN3 = make_base([_ANY3, _ANY3])
_EVEN2 = make_base([_ANY2, _ANY2])
_AA = make_base([{"a"}, {"a"}])
_EPS2 = make_base([{"a"}, frozenset()])

# name, expression, alphabet, reference regex
VALID = [
    ("blocks_bc", _BC_BASE, ["b", "c"], "(bc)*"),
    ("universal", make_base([_ANY2]), ["a", "b"], "(a|b)*"),
    ("even_length", _EVEN2, ["a", "b"], "((a|b)(a|b))*"),
    ("three_blocks", make_base([{"a"}, {"b"}, _ANY2]), ["a", "b"], "(ab(a|b))*"),
    ("marker_after_bc", DetProd(2, _BC_BASE, "a", _EVEN3), ["a", "b", "c"],
     "(bc)*a((a|b|c)(a|b|c))*"),
    ("marker_before_bc", CodetProd(2, _EVEN3, "a", _BC_BASE), ["a", "b", "c"],
     "((a|b|c)(a|b|c))*a(bc)*"),
    ("single_marker_mod1", DetProd(1, make_base([{"b"}]), "a", make_base([{"b"}])),
     ["a", "b"], "b*ab*"),
    ("two_level", DetProd(2, DetProd(2, _BC_BASE, "a", _CB_BASE), "a", _EVEN3),
     ["a", "b", "c"], "(bc)*a(cb)*a((a|b|c)(a|b|c))*"),
    ("union_with_product", Union(_BC_BASE, DetProd(2, _BC_BASE, "a", _BC_BASE)),
     ["a", "b", "c"], "(bc)*|(bc)*a(bc)*"),
    ("union_over_aa", Union(_AA, DetProd(2, _AA, "b", _AA)), ["a", "b"],
     "(aa)*|(aa)*b(aa)*"),
    ("abc_blocks",
     DetProd(3, make_base([{"a"}, {"b"}, {"c"}]), "b", make_base([_ANY3, _ANY3, _ANY3])),
     ["a", "b", "c"], "(abc)*b((a|b|c)(a|b|c)(a|b|c))*"),
    ("empty_left_operand", DetProd(2, _EPS2, "a", _EVEN2), ["a", "b"],
     "a((a|b)(a|b))*"),
    ("codet_inside_bc", CodetProd(2, _BC_BASE, "b", _BC_BASE), ["b", "c"],
     "(bc)*b(bc)*"),
]

# name, expression, alphabet, rule expected among the violations
INVALID = [
    ("odd-marker", DetProd(2, _EVEN2, "a", make_base([_ANY2])), ["a", "b"],
     "determinism"),
    ("overlapping-union", Union(make_base([{"a"}]), make_base([_ANY2])), ["a", "b"],
     "disjoint"),
    ("mixed-parity-left", DetProd(2, make_base([_ANY2]), "a", make_base([_ANY2])),
     ["a", "b"], "uniform-length"),
    ("cbc-suffixes", CodetProd(2, _EVEN3, "c", _BC_BASE), ["a", "b", "c"],
     "determinism"),
    ("foreign-marker", DetProd(2, _BC_BASE, "d", _EVEN3), ["a", "b", "c"],
     "alphabet"),
]

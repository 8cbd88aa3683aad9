"""Count the seeded sentences the formula compiler refuses at small state caps.

    python3 tools/sentence_refusals.py

It draws 1500 sentences from a fixed seed, shaped like the `formulas`
strategy of `tests/test_fologic.py`: letters a and b, at most 4 nested
quantifiers over the variables x, y and z, moduli at most 5, and no free
variables.  Each sentence is compiled at the state caps 4, 6, 8, 12 and
24, and at the default cap.  It prints, per cap, how many sentences raised
`CapError`, then one sha256 over the DFAs compiled at the default cap (the
JSON document of each, `automata.dfa_to_json`, in order, or `refused` for
one refused there).  It imports `fragcheck` from the `src` directory of the
checkout this file sits in, so a copy of this file in another checkout
counts that checkout.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fragcheck.automata import DEFAULT_STATE_CAP, dfa_to_json  # noqa: E402
from fragcheck.errors import CapError  # noqa: E402
from fragcheck.fologic import (  # noqa: E402
    And, Eq, Exists, FalseF, Forall, Lab, Len, Lt, Mod, Not, Or, TrueF, compile_formula,
)

SEED = 36
COUNT = 1500
CAPS = (4, 6, 8, 12, 24, DEFAULT_STATE_CAP)
LETTERS = ("a", "b")


def sentence(rng: random.Random, bound=(), quantifiers=4, size=5):
    """A formula whose free variables lie in `bound`, drawn as the test
    strategy draws one: the constants and `len` always, the atoms on a
    variable once one is bound, and each connective twice while `size`
    lasts, the quantifiers while `quantifiers` lasts."""
    kinds = ["true", "false", "len"]
    if bound:
        kinds += ["lab", "eq", "lt", "mod"]
    if size:
        kinds += 2 * (["and", "or", "not"] + (["exists", "forall"] if quantifiers else []))
    kind = rng.choice(kinds)
    if kind == "true":
        return TrueF()
    if kind == "false":
        return FalseF()
    if kind in ("len", "mod"):
        modulus = rng.randint(1, 5)
        residue = rng.randint(1, modulus)
        return Len(modulus, residue) if kind == "len" else Mod(rng.choice(bound), modulus, residue)
    if kind == "lab":
        return Lab(rng.choice(bound), rng.choice(LETTERS))
    if kind in ("eq", "lt"):
        return (Eq if kind == "eq" else Lt)(rng.choice(bound), rng.choice(bound))
    if kind == "not":
        return Not(sentence(rng, bound, quantifiers, size - 1))
    if kind in ("and", "or"):
        left = sentence(rng, bound, quantifiers, size - 1)
        right = sentence(rng, bound, quantifiers, size - 1)
        return (And if kind == "and" else Or)(left, right)
    x = rng.choice("xyz")
    body = sentence(rng, tuple(sorted(set(bound) | {x})), quantifiers - 1, size - 1)
    return (Exists if kind == "exists" else Forall)(x, body)


def main() -> int:
    rng = random.Random(SEED)
    sentences = [sentence(rng) for _ in range(COUNT)]
    refused = dict.fromkeys(CAPS, 0)
    digest = hashlib.sha256()
    for f in sentences:
        for cap in CAPS:
            try:
                d = compile_formula(f, LETTERS, state_cap=cap)
            except CapError:
                refused[cap] += 1
                d = None
            if cap == DEFAULT_STATE_CAP:
                digest.update(b"refused\n" if d is None else dfa_to_json(d).encode() + b"\n")
    print(f"{COUNT} sentences, seed {SEED}")
    for cap in CAPS:
        name = f"{cap} (default)" if cap == DEFAULT_STATE_CAP else str(cap)
        print(f"cap {name}: {refused[cap]} refused")
    print(f"default-cap sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

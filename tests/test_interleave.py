"""tools/interleave.py: a committed revision's package imported beside this
checkout's under a second name."""

import importlib.util
import json
import sys
from pathlib import Path

from fragcheck import fragments
from fragcheck.automata import minimize, regex_to_dfa

spec = importlib.util.spec_from_file_location(
    "interleave", Path(__file__).resolve().parent.parent / "tools" / "interleave.py")
interleave = importlib.util.module_from_spec(spec)
spec.loader.exec_module(interleave)


def test_head_export_imports_beside_the_checkout_and_analyzes_alike(tmp_path):
    head = interleave.load_export("HEAD", "fragcheck_head", tmp_path)
    try:
        other = interleave.submodules(head)["fragments"]
        assert Path(other.__file__).parent == tmp_path / "fragcheck_head"
        assert other is not fragments
        assert other.analyze.__module__ == "fragcheck_head.fragments"
        for pattern in ("(a|b)*", "(aa)*", "a(a|b)*", "(ab)*", "((a|b)(a|b))*(aa|bb)(a|b)*"):
            d = minimize(regex_to_dfa(pattern))
            for multiplier in (1, 3):
                docs = [json.dumps(module.analyze(d, index_multiplier=multiplier).to_doc())
                        for module in (fragments, other)]
                assert docs[0] == docs[1], (pattern, multiplier)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "fragcheck_head"]:
            del sys.modules[name]

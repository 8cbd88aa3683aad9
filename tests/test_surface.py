"""The library surface: every public top-level function of `src/fragcheck`
is reached by the program or named where its readers look for it.

A public function passes when one of these holds:

- a node elsewhere in `src/fragcheck` reads it (its own body does not
  count, so a recursive call alone does not): a `Name` that is loaded, an
  `Attribute` whose object is one of the package's modules, as in
  `stability.stability_info`, or an import;
- a file under `bench/` or `tools/` reads or imports it, by any `Name` or
  `Attribute` (a tool may read a function off a module it imported by
  `importlib`);
- `docs/formats.md` names it in backticks, with or without its module.

Reference code that only tests call belongs in `tests/oracles.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fragcheck"


def _read(node, modules=None) -> set:
    """The names `node` reads; with `modules`, a `Name` only when it is
    loaded and an `Attribute` only when its object is one of `modules`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if modules is None or isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if modules is None or (isinstance(sub.value, ast.Name)
                                   and sub.value.id in modules):
                names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defs_and_readers():
    """Each public top-level def as (module, name), and the names each
    top-level statement of `src/` reads, keyed by (module, def name or
    None), import lines left out."""
    defs, readers = [], {}
    paths = sorted(SRC.glob("*.py"))
    modules = {path.stem for path in paths}
    for path in paths:
        for i, node in enumerate(ast.parse(path.read_text()).body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                if not own.startswith("_"):
                    defs.append((path.stem, own))
            readers[(path.stem, own, i)] = _read(node, modules)
    return defs, readers


def unreached() -> list:
    defs, readers = _defs_and_readers()
    outside = set()
    for folder in ("bench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _read(ast.parse(path.read_text()))
    docs = (ROOT / "docs" / "formats.md").read_text()
    out = []
    for module, name in defs:
        in_src = any(name in read for (m, own, _), read in readers.items()
                     if (m, own) != (module, name))
        named = re.search(rf"`(\w+\.)*{re.escape(name)}\b", docs)
        if not (in_src or name in outside or named):
            out.append(f"{module}.{name}")
    return out


def test_every_public_function_is_reached():
    assert unreached() == []


def test_the_guard_sees_a_function_that_only_tests_call(tmp_path, monkeypatch):
    # a copy of the package with two extra public functions, read by
    # nothing, is refused on those alone: one that only calls itself, and
    # one whose name is also read as an attribute of `self`
    copy = tmp_path / "fragcheck"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    with open(copy / "errors.py", "a") as f:
        f.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this()\n"
                "\n\ndef also_an_attribute():\n    return None\n"
                "\n\nclass _Holder:\n    def read(self):\n        return self.also_an_attribute\n")
    monkeypatch.setitem(globals(), "SRC", copy)
    assert unreached() == ["errors.only_tests_call_this", "errors.also_an_attribute"]

"""The library surface: every public top-level function of `src/fragcheck`,
and every public method of its classes, is reached by the program or
named where its readers look for it.

A public function passes when one of these holds:

- a node elsewhere in `src/fragcheck` reads it (its own body does not
  count, so a recursive call alone does not): a `Name` that is loaded, an
  `Attribute` whose object is one of the package's modules, as in
  `stability.stability_info`, or an import;
- a file under `bench/` or `tools/` reads or imports it, by any `Name` or
  `Attribute` (a tool may read a function off a module it imported by
  `importlib`);
- `docs/formats.md` names it in backticks, with or without its module.

A public method passes by the same rules for `bench/`, `tools/` and the
docs; inside `src/fragcheck` it passes when an `Attribute` of its name is
loaded anywhere outside its own body, whatever its object.

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


def _attributes(node) -> set:
    """The attribute names `node` loads, whatever their object."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _defs_and_readers():
    """Each public top-level def as (module, name) and each public method
    as (module, "Class.name"); the names each top-level statement of
    `src/` reads, keyed by (module, def name or None), import lines left
    out; and the attributes each method and each other top-level statement
    loads, keyed by (module, "Class.name" or None)."""
    defs, readers, attributes = [], {}, []
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
            parts = node.body if isinstance(node, ast.ClassDef) else [node]
            for part in parts:
                method = None
                if part is not node and isinstance(part, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef)):
                    method = f"{node.name}.{part.name}"
                    if not part.name.startswith("_"):
                        defs.append((path.stem, method))
                attributes.append(((path.stem, method), _attributes(part)))
    return defs, readers, attributes


def unreached() -> list:
    defs, readers, attributes = _defs_and_readers()
    outside = set()
    for folder in ("bench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside |= _read(ast.parse(path.read_text()))
    docs = (ROOT / "docs" / "formats.md").read_text()
    out = []
    for module, name in defs:
        short = name.rpartition(".")[2]
        if short == name:
            in_src = any(name in read for (m, own, _), read in readers.items()
                         if (m, own) != (module, name))
        else:
            in_src = any(short in read for key, read in attributes if key != (module, name))
        named = re.search(rf"`(\w+\.)*{re.escape(short)}\b", docs)
        if not (in_src or short in outside or named):
            out.append(f"{module}.{name}")
    return out


def test_every_public_function_is_reached():
    assert unreached() == []


def test_the_guard_sees_a_function_that_only_tests_call(tmp_path, monkeypatch):
    # a copy of the package with two extra public functions, read by
    # nothing, is refused on those alone: one that only calls itself, and
    # one whose name is also read as an attribute of `self`; and of the
    # methods of an extra class, the one read only in its own body
    copy = tmp_path / "fragcheck"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    with open(copy / "errors.py", "a") as f:
        f.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this()\n"
                "\n\ndef also_an_attribute():\n    return None\n"
                "\n\nclass _Holder:\n    def read(self):\n        return self.also_an_attribute\n"
                "\n    def only_itself(self):\n        return self.only_itself() or self.read()\n")
    monkeypatch.setitem(globals(), "SRC", copy)
    assert unreached() == ["errors.only_tests_call_this", "errors.also_an_attribute",
                           "errors._Holder.only_itself"]

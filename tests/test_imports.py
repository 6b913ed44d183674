"""Every import in ``src/csie`` is used, and only ``cross_section`` names
the result cache.

No linter runs on this code, and a dead import can load a module when a
command starts, so this test looks for one with ``ast``: a name bound by an
import outside any function or class (in a top-level ``if`` or ``try`` too)
must be read somewhere in its module, or be listed in ``__all__``.  A name
bound by an import in a function (the way a command loads only the modules
it uses) must be read in that function, nested definitions included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "csie").glob("*.py"))


def _module_imports(body: list[ast.stmt]) -> dict[str, int]:
    """The names that the imports among ``body`` bind, with their lines,
    looking into ``if`` and ``try`` blocks but not into definitions."""
    bound: dict[str, int] = {}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        if isinstance(node, (ast.If, ast.Try)):
            handlers = getattr(node, "handlers", [])
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(h.body for h in handlers)):
                bound.update(_module_imports(block))
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def _unread_function_imports(tree: ast.Module) -> dict[str, int]:
    """``<function>.<name>`` of each name that an import in a function binds
    and that function does not read, with the import's line."""
    unread: dict[str, int] = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            for name, line in _module_imports(fn.body).items():
                if name not in read:
                    unread[f"{fn.name}.{name}"] = line
    return unread


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    used = _read_names(tree)
    unused = {name: line for name, line in _module_imports(tree.body).items() if name not in used}
    assert unused == {}, f"{source.name}: unused imports (name: line) {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse(
        "import os\nimport sys as system\nfrom typing import Any, Sequence\n"
        "if True:\n    import json\ntry:\n    import csv\nexcept ImportError:\n    csv = None\n"
        "def f(x: Any) -> None:\n    import re\n    return system.argv\n"
    )
    unused = set(_module_imports(tree.body)) - _read_names(tree)
    assert unused == {"os", "Sequence", "json"}


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_every_function_level_import_is_read_in_its_function(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    unread = _unread_function_imports(tree)
    assert unread == {}, f"{source.name}: unread imports (function.name: line) {unread}"


def test_the_check_finds_an_import_its_function_does_not_read():
    tree = ast.parse(
        "import re\n"
        "def f():\n    import json\n    from os import path, sep\n    return path\n"
        "def g():\n    import csv\n    def inner():\n        return csv\n    return inner\n"
        "def h():\n    if True:\n        import re\n    return json\n"
        "class C:\n    def m(self):\n        import sys as system\n        return re\n"
    )
    assert _unread_function_imports(tree) == {
        "f.json": 3, "f.sep": 4, "h.re": 13, "m.system": 17,
    }


CACHE_NAMES = (".csie-cache", "days.bin", "_CACHE_DIR", "_write_entry", "_prune_cache")


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_only_cross_section_names_the_cache(source):
    text = source.read_text(encoding="utf-8")
    named = [name for name in CACHE_NAMES if name in text]
    assert named == (list(CACHE_NAMES) if source.name == "cross_section.py" else [])


# Steps of the one row reader of EOD and index files: a second caller would
# be a second row loop.
SINGLE_CALLER = ("_record_chunks", "_split_row")


def _users(sources: dict[str, str], names: tuple[str, ...]) -> dict[str, list[str]]:
    """For each of ``names``, ``<module>:<function>`` of each function that
    reads it, as a name or an attribute, in order of first read; a read
    outside any function is ``<module>:``, and a nested function is a user
    of its own."""
    users: dict[str, list[str]] = {name: [] for name in names}

    def visit(node: ast.AST, user: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{user.split(':')[0]}:{child.name}")
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name in users and user not in users[name]:
                users[name].append(user)
            visit(child, user)

    for module, text in sources.items():
        visit(ast.parse(text), f"{module}:")
    return users


def test_each_step_of_the_row_reader_has_one_caller():
    users = _users({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}, SINGLE_CALLER)
    counts = {name: len(found) for name, found in users.items()}
    assert counts == dict.fromkeys(SINGLE_CALLER, 1), users


def test_the_check_finds_a_second_caller():
    planted = {
        "market_data": "def _read_rows(data):\n    return _split_row(_record_chunks(data), 5)\n",
        "other": (
            "from .market_data import _split_row\n"
            "def parse(rows):\n    return [_split_row(r, 5) for r in rows]\n"
            "CHUNKS = market_data._record_chunks(b'')\n"
        ),
    }
    assert _users(planted, SINGLE_CALLER) == {
        "_record_chunks": ["market_data:_read_rows", "other:"],
        "_split_row": ["market_data:_read_rows", "other:parse"],
    }


# The one function that dates an EOD file name, and its callers: the listing
# of a market directory and the public one-file reader.  A third caller would
# date a listed file again.
DATER_CALLERS = {"eod_filename_date": ["market_data:_dated_eod_files", "market_data:read_eod_file"]}


def _dater_callers(sources: dict[str, str]) -> dict[str, list[str]]:
    return {name: sorted(found) for name, found in _users(sources, tuple(DATER_CALLERS)).items()}


def test_a_file_name_is_dated_by_two_callers():
    assert _dater_callers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == DATER_CALLERS


def test_the_check_finds_a_third_dater():
    planted = {
        "market_data": (
            "def read_eod_file(path):\n    return eod_filename_date(path.name)\n"
            "def _dated_eod_files(paths):\n    return [eod_filename_date(p.name) for p in paths]\n"
        ),
        "cross_section": "def read(path):\n    return market_data.eod_filename_date(path.name)\n",
    }
    assert _dater_callers(planted) == {"eod_filename_date": [
        "cross_section:read", "market_data:_dated_eod_files", "market_data:read_eod_file"]}

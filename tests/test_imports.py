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
# be a second row loop, or a second place that converts and judges columns.
SINGLE_CALLER = ("_record_chunks", "_split_row", "_convert")


def _users(sources: dict[str, str], names: tuple[str, ...]) -> dict[str, list[str]]:
    """For each of ``names``, ``<module>:<function>`` of each function that
    reads it, as a name or an attribute, in order of first read; a read
    outside any function is ``<module>:``, and a nested function is a user
    of its own, ``<module>:<function>.<nested>``."""
    users: dict[str, list[str]] = {name: [] for name in names}

    def visit(node: ast.AST, user: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{user}{'' if user.endswith(':') else '.'}{child.name}")
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            reads = not isinstance(getattr(child, "ctx", None), ast.Store)
            if reads and name in users and user not in users[name]:
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
        "market_data": (
            "def _read_rows(data):\n"
            "    return _convert(_split_row(_record_chunks(data), 5), float)\n"
        ),
        "other": (
            "from .market_data import _split_row\n"
            "def parse(rows):\n    return [_split_row(r, 5) for r in rows]\n"
            "CHUNKS = market_data._record_chunks(b'')\n"
            "class Judged:\n    def judge(self, column):\n        return _convert(column, float)\n"
        ),
    }
    assert _users(planted, SINGLE_CALLER) == {
        "_record_chunks": ["market_data:_read_rows", "other:"],
        "_split_row": ["market_data:_read_rows", "other:parse"],
        "_convert": ["market_data:_read_rows", "other:judge"],
    }


# The one function that dates an EOD file name, and its one caller, the
# listing of a market directory.  A second caller would date a listed file
# again, and a second reader of the name pattern would hold a second copy of
# the ``<MARKET>_<YYYYMMDD>.csv`` rule.
DATER_CALLERS = {"eod_filename_date": ["market_data:_eod_files"],
                 "_EOD_NAME": ["market_data:eod_filename_date"]}


def _dater_callers(sources: dict[str, str]) -> dict[str, list[str]]:
    return {name: sorted(found) for name, found in _users(sources, tuple(DATER_CALLERS)).items()}


def test_a_file_name_is_dated_by_one_caller():
    assert _dater_callers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == DATER_CALLERS


def test_the_check_finds_a_second_dater():
    planted = {
        "market_data": (
            "_EOD_NAME = re.compile(r'.+_\\d{8}\\.csv')\n"
            "def eod_filename_date(name):\n    return _EOD_NAME.fullmatch(name)\n"
            "def _eod_files(path):\n"
            "    return [eod_filename_date(p.name) for p in path.iterdir()]\n"
        ),
        "cross_section": (
            "from .market_data import _EOD_NAME\n"
            "_STALE_NAME = re.compile(_EOD_NAME.pattern + '.bin')\n"
            "def read(path):\n    return market_data.eod_filename_date(path.name)\n"
        ),
    }
    assert _dater_callers(planted) == {
        "eod_filename_date": ["cross_section:read", "market_data:_eod_files"],
        "_EOD_NAME": ["cross_section:", "market_data:eod_filename_date"],
    }


# The callers of the one listing of a market directory, one for each way a
# directory is read: a second lister would be a second place where a listed
# file meets its outcome, the place that will group a date's files.
LISTER_CALLERS = {"_eod_files": ["cli:cmd_cluster", "cross_section:_cached_csie_days",
                                 "market_data:read_eod_dir"]}


def _lister_callers(sources: dict[str, str]) -> dict[str, list[str]]:
    return {name: sorted(found) for name, found in _users(sources, tuple(LISTER_CALLERS)).items()}


def test_a_market_directory_is_listed_by_one_function():
    assert _lister_callers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == (
        LISTER_CALLERS
    )


def test_the_check_finds_a_second_lister():
    planted = {
        "market_data": (
            "def _eod_files(path, read):\n    return map(read, sorted(path.iterdir()))\n"
            "def read_eod_dir(path):\n    return list(_eod_files(path, parse_eod_file))\n"
        ),
        "cli": (
            "def cmd_csie(cfg):\n    return list(market_data._eod_files(cfg.market_dir, read))\n"
        ),
    }
    assert _lister_callers(planted) == {"_eod_files": ["cli:cmd_csie", "market_data:read_eod_dir"]}


# The one rule that splits option text into a comma list: a second function
# that splits text in the CLI would be a second wording of that rule.
SPLITTERS = {"split": ["cli:_comma_list.parse"]}


def test_only_the_comma_list_rule_splits_option_text():
    [cli] = [p for p in SOURCES if p.name == "cli.py"]
    assert _users({"cli": cli.read_text(encoding="utf-8")}, tuple(SPLITTERS)) == SPLITTERS


def test_the_check_finds_a_second_splitter():
    planted = {
        "cli": (
            "def _comma_list(noun, item):\n"
            "    def parse(s):\n        return tuple(map(item, s.split(',')))\n"
            "    return parse\n"
            "def _parse_windows(s):\n    return tuple(int(p) for p in s.split(','))\n"
        ),
    }
    assert _users(planted, tuple(SPLITTERS)) == {
        "split": ["cli:_comma_list.parse", "cli:_parse_windows"]
    }


# The one power-of-two scaling of the statistics, its deviations and the one
# mean, with their callers: a second caller of ``np.frexp`` would be a second
# copy of the scaling, and a second reader of ``scaled_mean`` a second mean.
# The grid mean is a lambda of ``analytics.STATISTICS``, read outside any
# function.
SCALER_CALLERS = {"scaled_mean": ["_util:centred", "_util:mean"],
                  "centred": ["_util:pearson", "_util:variance", "analytics:vol_beta"],
                  "mean": ["analytics:", "analytics:mean_var"],
                  "frexp": ["_util:scaled_mean"]}


def _scaler_callers(sources: dict[str, str]) -> dict[str, list[str]]:
    return {name: sorted(found) for name, found in _users(sources, tuple(SCALER_CALLERS)).items()}


def test_the_statistics_share_one_scaling():
    assert _scaler_callers({p.stem: p.read_text(encoding="utf-8") for p in SOURCES}) == (
        SCALER_CALLERS
    )


def test_the_check_finds_a_second_scaling():
    planted = {
        "_util": (
            "def scaled_mean(x):\n    _, e = np.frexp(np.max(np.abs(x)))\n"
            "    y = np.ldexp(x, -e)\n    return y, exact_mean(y), int(e)\n"
            "def centred(x):\n    y, mu, e = scaled_mean(x)\n    return y - mu, e\n"
            "def mean(x):\n    return math.ldexp(*scaled_mean(x)[1:])\n"
            "def pearson(a, b):\n    return centred(a), centred(b)\n"
        ),
        "analytics": (
            "STATISTICS = {'mean': lambda est, _: mean(est)}\n"
            "def mean_var(values):\n    return _util.scaled_mean(values)[1], mean(values)\n"
            "def vol_beta(v, m):\n    _, e = np.frexp(np.max(np.abs(m)))\n    return e\n"
        ),
    }
    assert _scaler_callers(planted) == {
        "scaled_mean": ["_util:centred", "_util:mean", "analytics:mean_var"],
        "centred": ["_util:pearson"],
        "mean": ["analytics:", "analytics:mean_var"],
        "frexp": ["_util:scaled_mean", "analytics:vol_beta"],
    }

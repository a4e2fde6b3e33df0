"""Unit tests for the engine internals: imports, suppressions, config."""

import ast
import pathlib
import textwrap

import pytest

from repro.errors import ConfigError
from repro.lint import LintConfig, lint_paths, load_config
from repro.lint.asthelpers import ImportMap, literal_number
from repro.lint.config import path_matches
from repro.lint.engine import iter_python_files
from repro.lint.suppressions import parse_suppressions

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# ImportMap
# ----------------------------------------------------------------------
def resolve(source, expression):
    tree = ast.parse(source)
    imports = ImportMap(tree)
    return imports.resolve(ast.parse(expression, mode="eval").body)


def test_importmap_plain_import():
    assert resolve("import random", "random.Random") == "random.Random"


def test_importmap_aliased_import():
    assert resolve("import random as rnd", "rnd.Random") == "random.Random"


def test_importmap_from_import():
    assert resolve("from random import Random", "Random") == "random.Random"


def test_importmap_from_import_aliased():
    assert resolve("from numpy import random as npr",
                   "npr.rand") == "numpy.random.rand"


def test_importmap_submodule_import():
    assert resolve("import numpy.random", "numpy.random.rand") \
        == "numpy.random.rand"


def test_importmap_unknown_base_is_literal():
    assert resolve("import os", "mystery.call") == "mystery.call"


def test_importmap_non_name_base_is_none():
    tree = ast.parse("import os")
    imports = ImportMap(tree)
    call = ast.parse("get_thing().method", mode="eval").body
    assert imports.resolve(call) is None


def test_literal_number_handles_unary_minus():
    assert literal_number(ast.parse("-3", mode="eval").body) == -3
    assert literal_number(ast.parse("2.5", mode="eval").body) == 2.5
    assert literal_number(ast.parse("True", mode="eval").body) is None
    assert literal_number(ast.parse("x", mode="eval").body) is None


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_trailing_comment_is_line_scope():
    suppressions = parse_suppressions(
        "x = 1  # lint: disable=DET001\n")
    assert suppressions.is_suppressed("DET001", 1)
    assert not suppressions.is_suppressed("DET001", 2)
    assert not suppressions.is_suppressed("DET002", 1)


def test_standalone_comment_is_file_scope():
    suppressions = parse_suppressions(
        "# lint: disable=DET002\nx = 1\n")
    assert suppressions.is_suppressed("DET002", 1)
    assert suppressions.is_suppressed("DET002", 99)


def test_disable_all_and_multiple_codes():
    suppressions = parse_suppressions(textwrap.dedent("""\
        a = 1  # lint: disable=DET001, SIM002
        b = 2  # lint: disable=all
        """))
    assert suppressions.is_suppressed("DET001", 1)
    assert suppressions.is_suppressed("SIM002", 1)
    assert not suppressions.is_suppressed("DET003", 1)
    assert suppressions.is_suppressed("ANYTHING", 2)


def test_directive_inside_string_is_ignored():
    suppressions = parse_suppressions(
        's = "# lint: disable=DET001"\n')
    assert not suppressions.is_suppressed("DET001", 1)


# ----------------------------------------------------------------------
# File discovery & path matching
# ----------------------------------------------------------------------
def test_iter_python_files_skips_excluded_dirs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "pkg.egg-info").mkdir()
    (tmp_path / "pkg.egg-info" / "meta.py").write_text("x = 1\n")
    config = LintConfig(root=tmp_path)
    files = list(iter_python_files([tmp_path], config))
    assert [file.name for file in files] == ["ok.py"]


def test_iter_python_files_deduplicates(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("x = 1\n")
    config = LintConfig(root=tmp_path)
    files = list(iter_python_files([tmp_path, target], config))
    assert files == [target]


def test_path_matches_directory_and_file_patterns():
    assert path_matches("tools/bench.py", ("tools/",))
    assert path_matches("src/repro/perf.py", ("src/repro/perf.py",))
    # Scanning from inside src/ still matches the same allow entry.
    assert path_matches("repro/perf.py", ("src/repro/perf.py",))
    assert not path_matches("src/repro/cli.py", ("src/repro/perf.py",))
    assert not path_matches("src/tools.py", ("tools/",))


# ----------------------------------------------------------------------
# Config loading
# ----------------------------------------------------------------------
def test_load_config_finds_repo_pyproject():
    config = load_config(REPO_ROOT / "src" / "repro")
    assert config.root == REPO_ROOT
    assert config.baseline == "tools/lint_baseline.json"
    assert config.paths == ("src",)
    assert config.cacheable_priority_min == 1
    assert config.cacheable_priority_max == 2
    assert config.allows_wallclock("src/repro/perf.py")
    assert config.allows_wallclock("tools/make_experiments_report.py")
    assert not config.allows_wallclock("src/repro/cli.py")


def test_load_config_rejects_unknown_keys(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint]\ntypo-key = 1\n")
    with pytest.raises(ConfigError):
        load_config(tmp_path)


@pytest.mark.parametrize("key", [
    "experiments-paths",  # scoped SIM003, retired with the rule
    "program-cache",  # the whole-program summary cache, deleted
    "telemetry-paths",  # scoped DET004, folded into DET002
    "telemetry-profiling-allow",  # DET004's exemption, same
    "engine-wallclock-allow",  # folded into wallclock-allow
    # The whole-program layer's keys, deleted with it.
    "span-receiver-hints",
    "span-loop-allow",
    "perf-hot-paths",
    "async-blocking-allow",
])
def test_load_config_rejects_retired_keys(tmp_path, key):
    (tmp_path / "pyproject.toml").write_text(
        f'[tool.repro-lint]\n{key} = ["src/"]\n')
    with pytest.raises(ConfigError, match=key):
        load_config(tmp_path)


def test_load_config_rejects_non_string_lists(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint]\nwallclock-allow = [1, 2]\n")
    with pytest.raises(ConfigError, match="wallclock-allow"):
        load_config(tmp_path)


def test_load_config_defaults_without_pyproject(tmp_path):
    config = load_config(tmp_path)
    assert config.root == tmp_path
    assert config.paths == ("src",)


def test_lint_paths_accepts_strings():
    config = load_config(REPO_ROOT)
    run = lint_paths([str(REPO_ROOT / "src" / "repro" / "perf.py")],
                     config)
    assert run.findings == []


# ----------------------------------------------------------------------
# One pass per file
# ----------------------------------------------------------------------
def test_lint_paths_reads_parses_and_tokenizes_each_file_once(
        monkeypatch):
    import repro.lint.registry

    fixture = pathlib.Path(__file__).parent / "fixtures"
    config = LintConfig(root=fixture)
    files = list(iter_python_files([fixture], config))
    calls = {"read_text": 0, "parse": 0, "tokenize": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pathlib.Path, "read_text",
                        counting("read_text", pathlib.Path.read_text))
    monkeypatch.setattr(ast, "parse", counting("parse", ast.parse))
    monkeypatch.setattr(
        repro.lint.registry, "parse_suppressions",
        counting("tokenize", repro.lint.registry.parse_suppressions))
    run = lint_paths([fixture], config)
    assert run.files == len(files) > 1
    assert calls["read_text"] == calls["parse"] == len(files)
    assert calls["tokenize"] <= len(files)
    assert run.findings  # the fixture tree does have findings

"""The names the docs cite exist: every backticked `module.name` in README.md
and docs/formulas.md is an attribute of the package, every
`test_x.py::Name` reference names a test in tests/, and every `--flag` in
README.md is registered by `cli.build_parser()`."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from purifylab import cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "docs" / "formulas.md"]
FLAG = r"(?<![\w-])--[a-z][\w-]*"
MODULES = {p.stem for p in (ROOT / "src" / "purifylab").glob("*.py")} - {"__init__"}


def _text():
    """The docs' prose, fenced code blocks dropped."""
    text = "\n".join(doc.read_text() for doc in DOCS)
    return re.sub(r"```.*?```", "", text, flags=re.S)


def module_refs():
    """Dotted names in backticks whose head is a package module, call
    arguments dropped: `linalg.uhlmann_overlap(S, M)` cites
    linalg.uhlmann_overlap, `purifylab.metrics` the module itself."""
    refs = set()
    for span in re.findall(r"`([^`]+)`", _text()):
        m = re.match(r"(purifylab\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", span)
        name = m.group(2) if m else ""
        if name.split(".")[0] in MODULES and (m.group(1) or "." in name):
            refs.add(name)
    return sorted(refs)


def cited_tests():
    return sorted(set(re.findall(r"(test_\w+\.py)::(\w+(?:::\w+)?)", _text())))


def _defined_tests(path):
    """Top-level names of a test file, and Class::method for its classes."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def test_docs_cite_names():
    # the scan itself must see the citations the checks below rest on
    assert "metrics.error_orbit_numeric" in module_refs()
    assert ("test_checks.py", "TestFidelityUhlmannRoute") in cited_tests()


@pytest.mark.parametrize("ref", module_refs())
def test_module_reference_resolves(ref):
    head, *attrs = ref.split(".")
    obj = importlib.import_module(f"purifylab.{head}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{ref}: no attribute {attr!r}"
        obj = getattr(obj, attr)


@pytest.mark.parametrize("path, name", cited_tests(), ids=lambda x: x)
def test_test_reference_exists(path, name):
    assert (ROOT / "tests" / path).is_file(), path
    assert name in _defined_tests(ROOT / "tests" / path), f"{path}::{name}"


# a line that runs one of the benchmark's scripts, whose flags are its own
PERFBENCH_RUN = re.compile(r"^\s*python3? perfbench/")


def readme_flags():
    """Every `--flag` README.md cites, code blocks included, except on the
    lines that run a `perfbench/` script."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return sorted(set(re.findall(FLAG, "\n".join(
        line for line in lines if not PERFBENCH_RUN.match(line)))))


def registered_flags():
    """Every option string of the parser and of each subcommand, read from
    their help."""
    parser = cli.build_parser()
    commands = re.search(r"\{([\w,-]+)\}", parser.format_usage()).group(1).split(",")
    helps = [parser.format_help()]
    helps += [parser.parse_args([c]).parser.format_help() for c in commands]
    return set(re.findall(FLAG, "\n".join(helps)))


def test_readme_flags_seen():
    # the scans must see what the check below compares
    assert {"--config", "--k", "--bins"} <= set(readme_flags())
    assert {"--version", "--check", "--strategies"} <= registered_flags()


def test_readme_perfbench_lines_skipped():
    # the README shows a perfbench command; only its line is left out
    lines = (ROOT / "README.md").read_text().splitlines()
    runs = [line for line in lines if PERFBENCH_RUN.match(line)]
    assert any("perfbench/run.py --workload all" in line for line in runs)
    assert not PERFBENCH_RUN.match("purifylab validate --n 20  # perfbench/run.py")
    assert "--workload" not in readme_flags()


@pytest.mark.parametrize("flag", readme_flags())
def test_readme_flag_registered(flag):
    assert flag in registered_flags(), f"README.md cites {flag}, which no parser registers"

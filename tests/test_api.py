"""The public API is what a caller runs: every exported name has a caller
outside its own definition in the package or the benchmark, or restates a
claim of the paper."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "accwave"

# Helpers with no caller that each restate a claim of the paper; the tests
# check the claim through them.
PAPER_CLAIMS = {
    "eigenstructure",
    "momentum_residual",
    "ptm_equivalent_kv",
    "linear_degeneracy_indicator",
    "constant_gain",
    "density_gain",
    "follower_motion_closed_form",
    "wave_oscillation_period",
    "pair_wave_speed",
}


def _references(tree: ast.AST, spans=None):
    """Names read in `tree` (bare or as an attribute), skipping a read of a
    name that lies inside that name's own top-level definition."""
    spans = spans or {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        lo, hi = spans.get(name, (0, -1))
        if not lo <= node.lineno <= hi:
            yield name


def _definitions(tree: ast.Module):
    """Line span of each top-level definition, by name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
    return spans


def _exports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names():
    used = set()
    for tree in MODULES.values():
        used.update(_references(tree, _definitions(tree)))
    for path in (ROOT / "bench").glob("*.py"):
        used.update(_references(ast.parse(path.read_text())))
    return used


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_exported_name_has_a_caller_or_restates_a_paper_claim(module):
    used = _used_names()
    idle = [n for n in _exports(MODULES[module]) if n not in used and n not in PAPER_CLAIMS]
    assert idle == [], f"accwave.{module} exports names only tests use: {idle}"


def test_paper_claim_helpers_are_exported_and_have_no_caller():
    # an entry that gains a caller, or leaves the API, leaves this list too
    exported = {n for tree in MODULES.values() for n in _exports(tree)}
    assert PAPER_CLAIMS <= exported
    assert not PAPER_CLAIMS & _used_names()


def test_only_the_cli_prints():
    # the library reports through what it returns; the command line alone writes to the terminal
    calls = [f"accwave/{module}.py:{node.lineno}" for module, tree in MODULES.items() if module != "cli"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert calls == []


def _imported_with_the_cli(module: str) -> bool:
    """Whether a fresh interpreter holds `module` after `import accwave.cli`."""
    code = f"import sys, accwave.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_the_cli_imports_yaml_only_to_read_a_config():
    # `import yaml` lives in dataio.load_config: a run without --config never pays for it
    assert not _imported_with_the_cli("yaml")


def test_the_cli_does_not_import_fractions():
    # only waves.wave_oscillation_period, which no command calls, needs
    # fractions (and the decimal module it loads), and imports it itself
    assert not _imported_with_the_cli("fractions")

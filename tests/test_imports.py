"""Source hygiene: every name a package or test module imports is used in
it, and every parameter of a package function is read in its body."""

import ast
from pathlib import Path

import pytest

from labelnoise.cli import _PIPELINE

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labelnoise"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


# ``cli.main`` calls every pipeline stage as ``cmd_<stage>(resolved, seed, out, args)``
STAGE_PARAMETERS = ["resolved", "seed", "out", "args"]
STAGES = {command.__name__ for command in _PIPELINE.values()}


def _unread_parameters(tree: ast.Module):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        name = getattr(node, "name", "<lambda>")
        if name in STAGES:
            assert params == STAGE_PARAMETERS, name
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from (f"{name}({p})" for p in params if p not in read)


def test_the_pipeline_stages_are_found():
    assert len(STAGES) == 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = list(_unread_parameters(ast.parse(path.read_text(encoding="utf-8"))))
    assert unread == [], f"{path.name}: parameters never read: {unread}"

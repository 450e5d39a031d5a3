"""Every module under ``src/repro`` reads each name it imports.

No linter runs over this tree, so an import left behind when its last
use goes away stays unnoticed.  This test parses each module with
``ast`` and fails on any imported name the module never reads.  Reads
count in code, in string annotations and in ``__all__``.  Package
``__init__.py`` files are exempt: their imports are re-exports.

Also pinned here: importing the CLI or the encoding package loads no
numpy (only the replay package and the motivation statistics need it).
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _modules():
    paths = []
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py") and name != "__init__.py":
                paths.append(os.path.relpath(os.path.join(root, name), SRC))
    return sorted(paths)


def _imported_names(tree):
    """(bound name, line) of every import in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def _annotation_strings(tree):
    """String constants used as annotations (forward references)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    strings = []
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                strings.append(sub.value)
    return strings


def _read_names(tree):
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for text in _annotation_strings(tree):
        try:
            read |= _read_names(ast.parse(text, mode="eval"))
        except SyntaxError:
            pass
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return read


@pytest.mark.parametrize("module", _modules())
def test_module_reads_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read_names(tree)
    unused = [
        "%s (line %d)" % (name, line)
        for name, line in _imported_names(tree)
        if name not in read
    ]
    assert not unused, "%s imports names it never reads: %s" % (
        module, ", ".join(unused))


@pytest.mark.parametrize("module", ["repro.cli", "repro.encoding"])
def test_import_loads_no_numpy(module):
    code = "import sys, %s; print('numpy' in sys.modules)" % module
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(SRC, os.pardir)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

"""Properties of the library source itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nctoric"


def test_no_assert_statements():
    # `python -O` strips assert statements, so library re-checks must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and found == []


def test_package_import_loads_no_submodule():
    # the package __init__ re-exports nothing, so `import nctoric` alone
    # leaves each command to import the modules it uses
    probe = ("import sys, nctoric; "
             "print(sorted(m for m in sys.modules if m.startswith('nctoric.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_every_library_error_names_a_clause():
    # main reports a library error under the clause declared on its class;
    # only the input errors, which exit 2, may carry none
    from nctoric import clauses, errors

    labels = {v for k, v in vars(clauses).items() if k.isupper()}
    library = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.NctoricError)
               and cls not in (errors.NctoricError, errors.ParseError, errors.RankMismatch)]
    unnamed = [cls.__name__ for cls in library if getattr(cls, "clause", None) not in labels]
    assert len(library) >= 18 and unnamed == []


def test_every_clause_label_is_read():
    # a clause constant that no report or error cites is a dead label
    from nctoric import clauses

    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id == "clauses"}
    labels = [k for k in vars(clauses) if k.isupper()]
    assert len(labels) >= 30 and sorted(set(labels) - read) == []


def test_no_test_only_imports():
    # sympy, hypothesis and pytest are test dependencies, never runtime ones
    banned = {"sympy", "hypothesis", "pytest"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] in banned]
    assert SRC.is_dir() and found == []


def test_no_float_constants():
    # exact arithmetic throughout: a float literal would be a float operand
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, (float, complex))]
    assert SRC.is_dir() and found == []


def _loaded_names(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_unused_names():
    # no linter ships with the test dependencies: every import is used (or
    # listed in __all__) and every plain local assignment is read
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _loaded_names(tree)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                found |= {f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in used}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = _loaded_names(fn)
            read |= {name for n in ast.walk(fn)
                     if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
            found |= {f"{path.name}:{n.lineno} {t.id}" for n in ast.walk(fn)
                      if isinstance(n, ast.Assign) for t in n.targets
                      if isinstance(t, ast.Name) and t.id != "_" and t.id not in read}
    assert SRC.is_dir() and sorted(found) == []

"""Properties of the library source itself."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    assert len(library) >= 16 and unnamed == []


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


def _unused_names(tree, filename):
    """Unused imports and unread plain local assignments of one module. A
    module-level import is used if the module reads its name anywhere; an
    import inside a function only if that function (or one it encloses)
    reads it, so a stale local import is found even when another function
    reads the same name."""
    found = set()
    used = _loaded_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]):
            used |= {e.value for e in node.value.elts}
    functions = [fn for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # ast.walk visits an enclosing function before the functions it encloses,
    # so the last function written for an import is its innermost one
    scope = {node: fn for fn in functions for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"):
            read = _loaded_names(scope[node]) if node in scope else used
            found |= {f"{filename}:{node.lineno} import {alias.name}"
                      for alias in node.names
                      if (alias.asname or alias.name).split(".")[0] not in read}
    for fn in functions:
        read = _loaded_names(fn)
        read |= {name for n in ast.walk(fn)
                 if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        found |= {f"{filename}:{n.lineno} {t.id}" for n in ast.walk(fn)
                  if isinstance(n, ast.Assign) for t in n.targets
                  if isinstance(t, ast.Name) and t.id != "_" and t.id not in read}
    return found


def test_no_unused_names():
    # no linter ships with the test dependencies: every import is used (or
    # listed in __all__) and every plain local assignment is read
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _unused_names(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert SRC.is_dir() and sorted(found) == []


def test_stale_local_import_is_unused():
    # the name is read in another function, which imports it itself
    source = """
def cmd_check(args):
    from .deltasystem import check_admissible
    return check_admissible(args)


def cmd_list(args):
    from .deltasystem import check_admissible
    from .sheaves import polytope_sections

    def points():
        return polytope_sections(args)

    return points()
"""
    assert _unused_names(ast.parse(source), "cli.py") == {"cli.py:8 import check_admissible"}


def _unread_parameters(tree, filename):
    """Parameters that their function or lambda never reads. A dunder method
    is exempt, since its protocol fixes the signature."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "lambda")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = fn.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a]
        read = _loaded_names(fn)
        found |= {f"{filename}:{fn.lineno} {name}({p})" for p in params if p not in read}
    return found


def test_every_parameter_is_read():
    # a parameter the function ignores is an input its callers compute for nothing
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _unread_parameters(ast.parse(path.read_text(), filename=str(path)),
                                    path.name)
    assert SRC.is_dir() and sorted(found) == []


def test_planted_unused_parameter_is_found():
    # dim is never read; the closure reads rows, and __eq__ is exempt
    source = """
def nullspace(rows, dim):
    def width():
        return len(rows[0])
    return width()


class Vec:
    def __eq__(self, other):
        return True
"""
    assert _unread_parameters(ast.parse(source), "exactmath.py") == {
        "exactmath.py:2 nullspace(dim)"}


def _read_names(node):
    """How often the node reads each name, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _unread_functions(modules):
    """Public top-level functions, and methods other than dunders, of
    {module name: tree} whose name no module reads outside the definition's
    own body; the CLI's entry points are exempt."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    read = sum((_read_names(tree) for tree in modules.values()), Counter())
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, functions) and not node.name.startswith(("_", "cmd_"))
                    and node.name not in ("main", "build_parser")):
                defs[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                defs.update((f"{module}.{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, functions) and not fn.name.startswith("__"))
    return {name for name, fn in defs.items() if read[fn.name] == _read_names(fn)[fn.name]}


# public functions that no command reaches yet, each kept for an open item.
# The guard has two blind spots: it skips dunder methods, and it matches a
# method by its bare name, so a method that shares its name with one the
# library reads passes. tests/src_callers.py covers both by recording, with
# every method wrapped, which methods a frame in src/ calls during the suite.
UNREAD_KEPT = {
    "sheaves.combine_sections": "combines sections from separate files for the "
                                "embedding claim (ROADMAP item 4)",
    "ncalgebra.abelianize_elem": "the commutative shadow of an ideal element, for "
                                 "Def 3.9 and non-membership (ROADMAP items 4 and 6)",
}


def test_every_public_function_is_read():
    # a library function or method that nothing in the library reads is
    # test-only code (tests/oracles.py) or dead code
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    assert len(modules) >= 12 and _unread_functions(modules) == set(UNREAD_KEPT)


def test_planted_unread_function_is_found():
    # solve reads only itself, cli reads lift and Point.norm, cmd_run is an
    # entry point, and dunders are exempt; Point.one is read nowhere
    modules = {"lattice": ast.parse("def solve(n):\n    return solve(n - 1)\n\n\n"
                                    "def lift(u):\n    return u\n\n\n"
                                    "class Point:\n"
                                    "    def __eq__(self, other):\n        return True\n\n"
                                    "    def norm(self):\n        return 0\n\n"
                                    "    def one(self):\n        return 1\n"),
               "cli": ast.parse("def cmd_run(args):\n    return lattice.lift(args).norm()\n")}
    assert _unread_functions(modules) == {"lattice.solve", "lattice.Point.one"}


def _module_state_writes(tree, filename):
    """Writes from inside a function into a module-level binding: an item or
    attribute assignment (or deletion) on a name the module binds and the
    function does not, and every `global` statement."""
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top.add(node.name)
        else:
            top |= {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        local = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg] if a}
        local |= {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found.add(f"{filename}:{node.lineno} global {', '.join(node.names)}")
            elif (isinstance(node, (ast.Subscript, ast.Attribute))
                  and isinstance(node.ctx, (ast.Store, ast.Del))):
                base = node.value
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in top - local:
                    found.add(f"{filename}:{node.lineno} {base.id}")
    return found


def test_no_module_state_writes():
    # a function that writes module state makes one call's result depend on
    # the calls before it, and one test's on the tests before it
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _module_state_writes(ast.parse(path.read_text(), filename=str(path)),
                                      path.name)
    assert SRC.is_dir() and sorted(found) == []


def test_planted_module_state_write_is_found():
    # the memo and the counter are module state; the local cache shadows the
    # module-level name and self is a parameter
    source = """
import os
_MEMO = {}
cache = []
COUNT = 0


def compile(key, self):
    _MEMO[key] = key
    os.environ["X"] = key
    cache = {}
    cache[key] = self.value = key
    return cache


def bump():
    global COUNT
    COUNT += 1
"""
    assert _module_state_writes(ast.parse(source), "freeword.py") == {
        "freeword.py:9 _MEMO", "freeword.py:10 os", "freeword.py:17 global COUNT"}


def _setattr_definers(tree, filename):
    """Classes that bind __setattr__ in their body, other than the frozen
    base `errors.Frozen`."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or (filename, cls.name) == ("errors.py", "Frozen"):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            if "__setattr__" in names:
                found.add(f"{filename}:{node.lineno} {cls.name}")
    return found


def test_one_frozen_base():
    # immutability is written once, in errors.Frozen; a class that refuses
    # assignment derives from it instead of defining its own __setattr__
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _setattr_definers(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert SRC.is_dir() and sorted(found) == []


def test_planted_setattr_is_found():
    # Word derives from the base; Point writes its own rule, Alias binds
    # one, and only the base in errors.py is exempt
    source = """
class Frozen:
    def __setattr__(self, name, value):
        raise AttributeError(name)


class Word(Frozen):
    __slots__ = ("letters",)


class Point:
    def __setattr__(self, name, value):
        raise AttributeError(name)


class Alias:
    __setattr__ = Frozen.__setattr__
"""
    assert _setattr_definers(ast.parse(source), "errors.py") == {
        "errors.py:12 Point", "errors.py:17 Alias"}
    assert _setattr_definers(ast.parse(source), "freeword.py") == {
        "freeword.py:3 Frozen", "freeword.py:12 Point", "freeword.py:17 Alias"}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One file for each probed command: a one-cone fan, the fan of P^1 (whose
    divisor polytopes are bounded), a sheaf, a section and a subscheme of it
    on the one-cone fan, a matrix model on that fan, and a 2 x 2 matrix."""
    from nctoric.cli import main

    tmp = tmp_path_factory.mktemp("imports")
    fan = _write(tmp / "cone.fan", {"rank": 2, "rays": [[1, 0], [0, 1]],
                                   "max_cones": [[0, 1]]})
    div = _write(tmp / "d.div", {"coefficients": {}})
    _write(tmp / "p1.fan", {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]})
    _write(tmp / "m.json", {"size": 2, "entries": ["0", "2", "1", "0"]})
    steps = [["sheaf", "from-divisor", fan, "--divisor", div, "--out", str(tmp / "sh.json")],
             ["section", "extend", str(tmp / "sh.json"), "--divisor", div,
              "--point", "0,0", "--out", str(tmp / "sec.json")],
             ["subscheme", "build", str(tmp / "sec.json"), "--out", str(tmp / "sub.json")],
             ["morphism", "sample", fan, "--r", "2", "--out", str(tmp / "mor.json")]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in steps] == [0] * len(steps)
    return tmp


FAN_CHECK = {"cli", "clauses", "errors", "exactmath", "reports", "serialize", "toricfan"}
SYSTEM_CHECK = FAN_CHECK | {"deltasystem", "freeword"}
SUBSCHEME_MEMBER = SYSTEM_CHECK | {"ncalgebra"}
SECTION_EXTEND = SUBSCHEME_MEMBER | {"sheaves"}
MORPHISM_CHECK = SUBSCHEME_MEMBER | {"azumaya", "qimatrix"}
# a bare matrix needs no chart system
PROBE_A1 = MORPHISM_CHECK - {"deltasystem"}


@pytest.mark.parametrize("argv, modules", [
    (["fan", "check", "cone.fan"], FAN_CHECK),
    (["section", "list", "p1.fan", "--divisor", "d.div"], FAN_CHECK),
    (["system", "check", "cone.fan"], SYSTEM_CHECK),
    (["subscheme", "member", "sub.json", "--cone", "", "--element", "z1"], SUBSCHEME_MEMBER),
    (["morphism", "check", "mor.json"], MORPHISM_CHECK),
    (["section", "extend", "sh.json", "--divisor", "d.div", "--point", "0,0"], SECTION_EXTEND),
    (["probe", "a1", "m.json"], PROBE_A1),
], ids=["fan", "section", "system", "subscheme", "morphism", "section-extend", "probe"])
def test_each_command_imports_only_its_layers(artifacts, argv, modules):
    # a command is one short process, so the layers it imports but never
    # runs are start-up time it pays for nothing; so is `dataclasses`, which
    # loads `inspect` (and `ast`, `dis`, `tokenize`) for a few record classes
    probe = ("import contextlib, io, sys\n"
             "from nctoric.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             "print(code, *sorted(m for m in sys.modules if m.startswith('nctoric.')\n"
             "                    or m in ('dataclasses', 'inspect')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=env, cwd=artifacts, timeout=60)
    code, *loaded = proc.stdout.split()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert code == "0" and set(loaded) == {f"nctoric.{m}" for m in modules}

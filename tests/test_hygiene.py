"""Source hygiene: every module-level or local import in the package, the
tests and the benchmark is used, and every module-level definition in the
package is read somewhere else in it, a public one unless PUBLIC_API lists
it. Nothing in the package sets mpmath's working precision outside
specfun.PrecisionContext.work, each setter is an item of a `with` that holds
specfun._lock before it, that lock is the only threading object the package
makes and only specfun names it, no module of the package imports
`warnings` (a call returns digits or raises a HeulagError), and no call in
a loop body of the package does exact mpf arithmetic. Every module-level
cache in the package is an lru_cache with a finite maxsize. Every file in
tests/data is written by exactly one dataset of the frozen-data harness
(tests/frozen.py), and every such dataset's file exists. No linter ships with
the toolchain, so these scans are the lint step. Names listed in a module's
__all__ count as used imports (they are re-exports), and __future__ imports
are exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "heulag").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")])
# The package's modules as the definition scans see them: __init__.py only
# re-exports, and a re-export is not a read.
MODULES = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
# The scripts under tests/ that pytest does not collect: the frozen data's owners.
SCRIPTS = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("*.py")
           if not p.name.startswith("test_")}

# Public names that nothing in the package reads, each with its reason.
PUBLIC_API = {
    "cli.load_cache": "bench/workloads.py reads reconstructions back through it until "
                      "ROADMAP item 2 moves the bench off the cache file",
    "cli.write_cache": "bench/workloads.py persists reconstructions through it until "
                       "ROADMAP item 2 moves the bench off the cache file",
    "comparators.pade_eval": "the Pade baseline; bench/spans.py traces it, the CLI calls its _pade",
    "extrapolant.extrapolate": "the one-shot build-then-evaluate API that the bench and the "
                               "README use; the CLI builds an Extrapolant per reconstruction",
    "finitepart.exp_kernel": "the kernel fp_canonical_oracle checks the closed formulas on",
    "finitepart.fp_canonical_oracle": "the canonical epsilon-cutoff finite-part oracle",
    "models.coeff": "one exact coefficient for callers; coefficients converts the model once "
                    "and runs the same formula through _coeff",
    "models.finite_part_assembly": "the finite-part route to the closed forms, an oracle",
    "models.strong_field_leading": "the strong-field asymptotics; to grow into the series "
                                   "oracle of ROADMAP item 6",
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in _exported(tree))


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("from __future__ import annotations\n"
                          "from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _definitions(tree: ast.Module):
    """(name, statement) for each module-level def, class or assignment;
    dunder names such as __all__ aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


def _reads(node: ast.AST) -> set[str]:
    """Names a statement reads: loads, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of each module-level name in `sources` that no
    other statement there reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    return sorted((module, name, node.lineno)
                  for module, tree in trees.items()
                  for name, node in _definitions(tree)
                  if not any(name in names for other, names in reads if other is not node))


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no other statement in `sources` reads."""
    return [f"{module}.{name} (line {line})"
            for module, name, line in unread_definitions(sources) if name.startswith("_")]


def unread_publics(sources: dict[str, str]) -> list[str]:
    """Module-level public names that no other statement in `sources` reads."""
    return [f"{module}.{name}"
            for module, name, _ in unread_definitions(sources) if not name.startswith("_")]


def test_scan_flags_an_orphaned_private_definition():
    sources = {
        "a": "def _used(): pass\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "_X, _Y = 1, 2\n"
             "class _Unused: pass\n"
             "def __getattr__(name): pass\n",
        "b": "from .a import _used\nimport a\nprint(_used(), a._X)\n",
    }
    assert orphaned_privates(sources) == [
        "a._Unused (line 4)", "a._Y (line 3)", "a._recursive (line 2)"]


def test_no_orphaned_private_definitions():
    assert orphaned_privates(MODULES) == []


def test_scan_flags_an_unread_public_name():
    sources = {
        "a": "__all__ = ['used', 'unread', 'X']\n"
             "def used(): pass\n"
             "def unread(): pass\n"
             "X = Y = 1\n"
             "class C: pass\n"
             "__version__ = '1'\n",
        "b": "from .a import used, C\nprint(used(), a.Y)\n",
    }
    assert unread_publics(sources) == ["a.X", "a.unread"]


def test_public_names_are_read_or_listed():
    # an unread name off the list, or a listed name now read or gone, fails
    assert unread_publics(MODULES) == sorted(PUBLIC_API)


def _is_mp_attr(node: ast.AST, names: tuple[str, ...]) -> bool:
    """`mp.<name>` for a name in `names`."""
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "mp")


def _sets_precision(node: ast.AST) -> bool:
    """A call to mp.workdps or mp.workprec, or an assignment to mp.dps or mp.prec."""
    if isinstance(node, ast.Call):
        return _is_mp_attr(node.func, ("workdps", "workprec"))
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(_is_mp_attr(t, ("dps", "prec")) for target in targets for t in ast.walk(target))
    return False


def _scoped(sources: dict[str, str], matches) -> list[tuple[str, int]]:
    """(scope, line) of each node in `sources` that `matches`, sorted; the
    scope is the module and its enclosing classes and functions."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append((scope, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for module, text in sources.items():
        visit(ast.parse(text), module)
    return sorted(found)


def precision_setters(sources: dict[str, str]) -> list[str]:
    """`scope (line n)` of each statement or call in `sources` that sets an
    absolute working precision, outside specfun.PrecisionContext.work.
    Relative raises (mp.extradps, mp.extraprec) are not setters."""
    exempt = "specfun.PrecisionContext.work"
    return [f"{scope} (line {line})" for scope, line in _scoped(sources, _sets_precision)
            if scope != exempt and not scope.startswith(exempt + ".")]


def test_scan_flags_a_precision_setter():
    sources = {
        "specfun": "class PrecisionContext:\n"
                   "    def work(self):\n"
                   "        with mp.workdps(50): mp.dps = 50\n"
                   "    def round(self, v):\n"
                   "        with mp.workdps(30): return +v\n",
        "a": "mp.dps = 50\n"
             "def f():\n"
             "    mp.prec += 10\n"
             "    with mp.workprec(100): pass\n"
             "    with mp.extradps(10), ctx.work(5): return mp.dps\n"
             "class C:\n"
             "    def g(self):\n"
             "        def h(): mp.dps = self.prec = 3\n"
             "        return mp.workdps(60)\n",
    }
    assert precision_setters(sources) == [
        "a (line 1)", "a.C.g (line 9)", "a.C.g.h (line 8)", "a.f (line 3)", "a.f (line 4)",
        "specfun.PrecisionContext.round (line 5)"]


def test_only_the_precision_context_sets_precision():
    # code outside a work scope names its precision per call (dps=) or is exact
    assert precision_setters(SOURCES) == []


def _is_lock(node: ast.AST) -> bool:
    """`_lock` or `<module>._lock`."""
    return ((isinstance(node, ast.Name) and node.id == "_lock")
            or (isinstance(node, ast.Attribute) and node.attr == "_lock"))


def unlocked_precision_setters(sources: dict[str, str]) -> list[str]:
    """`module (line n)` of each statement or call in `sources` that sets an
    absolute working precision, unless it is an item of a `with` statement
    whose earlier item is `_lock`: entered first, the lock is held while the
    precision is set and restored."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        locked = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                exprs = [item.context_expr for item in node.items]
                locked.update(e for i, e in enumerate(exprs) if any(map(_is_lock, exprs[:i])))
        found += [(module, n.lineno) for n in ast.walk(tree)
                  if _sets_precision(n) and n not in locked]
    return [f"{module} (line {line})" for module, line in sorted(found)]


def test_scan_flags_a_precision_setter_without_the_lock():
    sources = {
        "a": "with _lock, mp.workdps(50): pass\n"
             "with specfun._lock, x, mp.workprec(90): pass\n"
             "with mp.workdps(50), _lock: pass\n"
             "with _lock:\n"
             "    with mp.workdps(50): mp.dps = 50\n"
             "def f(): return mp.workdps(60)\n",
    }
    assert unlocked_precision_setters(sources) == [
        "a (line 3)", "a (line 5)", "a (line 5)", "a (line 6)"]


def test_precision_is_set_only_under_the_lock():
    assert unlocked_precision_setters(MODULES) == []


def threading_calls(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each call in `sources` to a `threading` attribute or
    to a name imported from `threading`."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "threading"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in imported:
                found.append((module, imported[f.id]))
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "threading"):
                found.append((module, f.attr))
    return sorted(found)


def test_scan_finds_each_threading_call():
    sources = {
        "a": "import threading\n"
             "from threading import Lock as L\n"
             "_a = threading.RLock()\n"
             "def f(): return L(), threading.Semaphore(2), lock()\n",
        "b": "lock = object()\n",
    }
    assert threading_calls(sources) == [("a", "Lock"), ("a", "RLock"), ("a", "Semaphore")]


def test_the_package_makes_one_lock():
    # specfun._lock serializes every precision scope and guards every shared cache
    assert threading_calls(MODULES) == [("specfun", "RLock")]


def lock_names(sources: dict[str, str]) -> list[str]:
    """`scope (line n)` of each name, attribute or import of `_lock` in `sources`."""
    def names_lock(node: ast.AST) -> bool:
        return _is_lock(node) or (isinstance(node, ast.alias) and node.name == "_lock")

    return [f"{scope} (line {line})" for scope, line in _scoped(sources, names_lock)]


def test_scan_finds_each_name_of_the_lock():
    sources = {
        "specfun": "_lock = RLock()\n"
                   "def f():\n"
                   "    with _lock: pass\n",
        "a": "from .specfun import _lock\n"
             "import specfun\n"
             "def g():\n"
             "    with specfun._lock: pass\n"
             "lock = _locked = 1\n",
    }
    assert lock_names(sources) == [
        "a (line 1)", "a.g (line 4)", "specfun (line 1)", "specfun.f (line 3)"]


def test_only_specfun_names_the_lock():
    # the lock is made once and taken by the precision scope and the
    # Bernoulli cache alone
    assert {s.partition(" ")[0] for s in lock_names(SOURCES)} == {
        "specfun", "specfun.PrecisionContext.work", "specfun._bernoulli_even"}


def warnings_imports(sources: dict[str, str]) -> list[str]:
    """`scope (line n)` of each import of the `warnings` module or a name
    from it in `sources`; a relative import names another module."""
    def imports_warnings(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            return False
        return any(n.partition(".")[0] == "warnings" for n in names)

    return [f"{scope} (line {line})" for scope, line in _scoped(sources, imports_warnings)]


def test_scan_flags_a_warnings_import():
    sources = {
        "a": "import warnings\n"
             "import os, warnings as w\n"
             "from warnings import warn\n",
        "b": "from .warnings import x\n"
             "import warningsx\n"
             "def f():\n"
             "    import warnings\n",
    }
    assert warnings_imports(sources) == ["a (line 1)", "a (line 2)", "a (line 3)", "b.f (line 4)"]


def test_the_package_imports_no_warnings():
    # a public function returns digits or raises a HeulagError
    assert warnings_imports(SOURCES) == []


def exact_calls_in_loops(sources: dict[str, str]) -> list[str]:
    """`module (line n)` of each call with the keyword `exact=True` inside the
    body of a `for` or `while` loop: exact mpf arithmetic fed back through a
    loop grows its mantissas at every pass."""
    found = set()
    for module, text in sources.items():
        for loop in ast.walk(ast.parse(text)):
            if isinstance(loop, (ast.For, ast.While)):
                found.update(
                    (module, n.lineno) for stmt in loop.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Call) and any(
                        k.arg == "exact" and isinstance(k.value, ast.Constant)
                        and k.value.value is True for k in n.keywords))
    return [f"{module} (line {line})" for module, line in sorted(found)]


def test_scan_flags_exact_arithmetic_in_a_loop():
    sources = {
        "a": "s = mp.fadd(x, y, exact=True)\n"
             "for l in range(9):\n"
             "    s = mp.fadd(mp.fmul(s, t, exact=True), l, exact=True)\n"
             "    u = mp.fmul(s, t, exact=False)\n"
             "while s:\n"
             "    if s:\n"
             "        s = f(mp.fneg(s, exact=True))\n"
             "    else:\n"
             "        s = 0\n",
    }
    assert exact_calls_in_loops(sources) == ["a (line 3)", "a (line 7)"]


def test_no_exact_mpf_arithmetic_in_loops():
    assert exact_calls_in_loops(MODULES) == []


def frozen_data_faults(sources: dict[str, str], files: list[str]) -> list[str]:
    """One line for each name in `files` (tests/data's) that no `Dataset(name,
    ...)` call in `sources` writes or that more than one writes, for each
    such dataset whose file `files` lacks, and for each call whose name is not
    a string literal."""
    owners, faults = {}, []
    for module, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            func = n.func if isinstance(n, ast.Call) else None
            if "Dataset" not in (getattr(func, "id", None), getattr(func, "attr", None)):
                continue
            if n.args and isinstance(n.args[0], ast.Constant) and isinstance(n.args[0].value, str):
                owners.setdefault(f"{n.args[0].value}.json", []).append(module)
            else:
                faults.append(f"{module} (line {n.lineno}): a dataset named by an expression")
    return sorted([*faults,
                   *(f"{f}: written by no dataset" for f in files if f not in owners),
                   *(f"{f}: written by {' and '.join(m)}" for f, m in owners.items()
                     if len(m) > 1),
                   *(f"{f}: missing" for f in owners if f not in files)])


def test_scan_flags_an_orphan_and_a_missing_data_file():
    sources = {
        "a": "import frozen\n"
             "A = frozen.Dataset('x', f)\n"
             "B = frozen.Dataset('y', g)\n",
        "b": "from frozen import Dataset\n"
             "C = Dataset('y', h)\n"
             "D = Dataset(NAME, h)\n"
             "E = Dataset('v', h)\n"
             "dataset('w', h)\n",
    }
    assert frozen_data_faults(sources, ["w.json", "x.json", "y.json"]) == [
        "b (line 3): a dataset named by an expression", "v.json: missing",
        "w.json: written by no dataset", "y.json: written by a and b"]


def test_every_frozen_data_file_has_one_dataset():
    files = sorted(p.name for p in (ROOT / "tests" / "data").iterdir())
    assert frozen_data_faults(SCRIPTS, files) == []


def unbounded_caches(sources: dict[str, str]) -> list[str]:
    """`module.name (line n)` of each module-level function decorated with
    functools.cache, or with functools.lru_cache that names no positive
    integer maxsize; and the same of each module-level assignment whose
    value such a decorator wraps. A module-level cache lives as long as the
    process, so its bound is a bound on memory."""
    def name(node: ast.AST):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def unbounded(dec: ast.AST) -> bool:
        if name(dec) in ("cache", "lru_cache"):  # bare, or maxsize left at its default
            return True
        if not (isinstance(dec, ast.Call) and name(dec.func) in ("cache", "lru_cache")):
            return False
        size = dec.args[0] if dec.args else next(
            (k.value for k in dec.keywords if k.arg == "maxsize"), None)
        return not (isinstance(size, ast.Constant) and type(size.value) is int
                    and size.value > 0)

    found = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators, label = node.decorator_list, node.name
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                decorators = [node.value.func]
                label = ", ".join(t.id for t in node.targets if isinstance(t, ast.Name))
            else:
                continue
            found += [f"{module}.{label} (line {node.lineno})"
                      for dec in decorators if unbounded(dec)]
    return found


def test_scan_flags_an_unbounded_cache():
    sources = {
        "a": "@lru_cache(maxsize=4)\n"
             "def ok(): pass\n"
             "@functools.lru_cache(8)\n"
             "def ok2(): pass\n"
             "@lru_cache(maxsize=None)\n"
             "def none(): pass\n"
             "@functools.lru_cache\n"
             "def bare(): pass\n"
             "@cache\n"
             "def plain(): pass\n",
        "b": "@functools.cache\n"
             "def dotted(): pass\n"
             "@lru_cache(typed=True)\n"
             "def default(): pass\n"
             "table = lru_cache(maxsize=0)(f)\n"
             "kept = lru_cache(maxsize=2)(f)\n"
             "def local():\n"
             "    return cache(lambda: 1)\n",
    }
    assert unbounded_caches(sources) == [
        "a.none (line 6)", "a.bare (line 8)", "a.plain (line 10)",
        "b.dotted (line 2)", "b.default (line 4)", "b.table (line 5)"]


def test_every_module_level_cache_is_bounded():
    # peak memory is a tracked end-to-end metric, and a cache moves it
    assert unbounded_caches(SOURCES) == []

"""The library's API surface, read from its source with `ast`.

Every parameter of every function and lambda in `src/qsu2` is read by its
body, unless a protocol fixes the signature (PROTOCOL_PARAMETERS).  Every
public module-level function has a caller under `src/qsu2`, unless
UNCALLED names it with its reason; callers in `perfbench/` and `tests/` do
not count.  UNCALLED only shrinks: an entry whose function gains a caller
fails until it is removed.  Every defaulted parameter of a function that
code under `src/qsu2` or `perfbench/` calls is passed by one of those
calls: a default no caller overrides is a constant, not a parameter.
Functions with no call there, those UNCALLED names among them, are exempt
until they gain one.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qsu2"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
# the benchmark's code, whose calls count with the library's as callers
PERFBENCH = {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "perfbench").rglob("*.py"))
}

# (module, owner, parameter): why the body need not read it.  A lambda's
# owner is the module-level name it is assigned under, a method's its class
PROTOCOL_PARAMETERS = {
    ("serialize", "_HashedFile.__exit__", "exc"): "the context-manager protocol passes the exception triple",
    ("schrodinger", "F2_BRANCHES", "F"): "every f2 form takes (g, F); a constant's derivatives ignore F",
}

# public functions no code under src/qsu2 calls yet: "module.name" -> reason
UNCALLED = {
    "classify.allowed_m_set": "infinite-series paper content, for a CLI surface of the infinite series",
    "classify.class2a_enumerate": "infinite-series paper content (the mixed-series lattice at a root of unity)",
    "classify.continuous_series_c": "infinite-series paper content (the continuous series' Casimir)",
    "classify.forbidden_m": "infinite-series paper content, for a CLI surface of the infinite series",
    "classify.interval_structure": "infinite-series paper content, for a CLI surface of the infinite series",
    "geometry.distinct_bracket_values": "root-of-unity content, for a sweep of the realization over s",
    "geometry.flow_bound_excess": "a health figure for the flow manifest",
    "hopf.reduction_residuals": "a health figure for the hopf manifest",
    "hopf.window_inequalities": "a health figure for the hopf manifest",
    "operators.continuous_ladder_coeff": "infinite-series paper content (the continuous series' closed form)",
    "qnumbers.complex_split_residual": "a check of the complex bracket, a test oracle",
    "schrodinger.commensurability_peak": "benchmark workload",
    "schrodinger.coupled_solve": "the general-coupling construction, a reference for the realization's Casimir",
    "schrodinger.decoupled_ok": "the ladder's regime test, for a closure check of the ladder",
    "schrodinger.disjoint_support_pair": "root-of-unity content, for a sweep of the realization over s",
    "schrodinger.eigen_discretization_error": "a health figure for the spectrum manifest",
    "schrodinger.f1_residual": "a health figure for the potential and spectrum manifests",
    "schrodinger.f2_residual": "a health figure for the potential and spectrum manifests",
    "schrodinger.ladder_apply": "the ladder map, for a closure check of the ladder",
    "schrodinger.ladder_residual": "the ladder map's residual, for a closure check of the ladder",
    "schrodinger.ladder_shift": "the ladder's Casimir bookkeeping, for a closure check of the ladder",
    "serialize.sha256_of": "a re-read of a written file, a test oracle",
}


def _parameters(node) -> list:
    args = node.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None]


def _reads(node) -> set:
    """The names the body of a function or lambda reads; a zero-argument
    super() reads the first parameter."""
    body = node.body if isinstance(node.body, list) else [node.body]
    read = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "super":
                if not sub.args and _parameters(node):
                    read.add(_parameters(node)[0])
    return read


def _functions(tree):
    """(owner, node) for every function and lambda: a def's owner is its
    dotted path of classes and defs, a lambda's the module-level name it
    is assigned under (else its enclosing def's path)."""

    def walk(node, path, assigned):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = ".".join([*path, child.name])
                yield owner, child
                yield from walk(child, [*path, child.name], None)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, [*path, child.name], None)
            elif isinstance(child, ast.Lambda):
                yield assigned or ".".join(path), child
                yield from walk(child, path, assigned)
            else:
                target = assigned
                if not path and isinstance(child, ast.Assign) and isinstance(child.targets[0], ast.Name):
                    target = child.targets[0].id
                yield from walk(child, path, target)

    yield from walk(tree, [], None)


def _unread_parameters() -> list:
    unread = []
    for module, tree in MODULES.items():
        for owner, node in _functions(tree):
            reads = _reads(node)
            unread += [(module, owner, p) for p in _parameters(node) if p not in reads]
    return unread


def _uncalled_public_functions() -> set:
    defs = {
        (module, node.name): node
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    references = {}  # name -> [(module, line)] of every Name and attribute naming it
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                references.setdefault(name, []).append((module, node.lineno))
    uncalled = set()
    for (module, name), node in defs.items():
        own = range(node.lineno, node.end_lineno + 1)  # recursion is no caller
        if all(where == module and line in own for where, line in references.get(name, [])):
            uncalled.add(f"{module}.{name}")
    return uncalled


def _defaulted(node) -> list:
    """(name, index) of each parameter with a default, index its place
    among the positional parameters a call fills (after a method's self
    or cls), or None for a keyword-only one."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    named = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return named + [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def _passes(call, name: str, index) -> bool:
    """Whether the call may pass the parameter: by keyword, by position, or
    through *args or **kwargs, whose contents the source does not show."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def _unset_defaults() -> list:
    """(module, owner, parameter) of each defaulted parameter of a called
    library function that none of its calls passes; a call matches every
    def of the name it calls."""
    calls = {}  # name -> [ast.Call] under src/qsu2 and perfbench/
    for tree in [*MODULES.values(), *PERFBENCH.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in MODULES.items():
        for owner, node in _functions(tree):
            if isinstance(node, ast.Lambda) or not calls.get(node.name):
                continue
            for name, index in _defaulted(node):
                if not any(_passes(call, name, index) for call in calls[node.name]):
                    unset.append((module, owner, name))
    return unset


def test_every_parameter_is_read():
    unread = [key for key in _unread_parameters() if key not in PROTOCOL_PARAMETERS]
    assert not unread, f"parameters no body reads: {unread}"


def test_every_protocol_exemption_is_still_needed():
    unread = set(_unread_parameters())
    assert not [key for key in PROTOCOL_PARAMETERS if key not in unread]


def test_every_public_function_has_a_caller_in_the_library():
    missing = sorted(_uncalled_public_functions() - UNCALLED.keys())
    assert not missing, f"public functions with no caller under src/qsu2: {missing}"


def test_the_uncalled_list_only_names_uncalled_functions():
    # an entry whose function gained a caller, or is gone, leaves the list
    stale = sorted(UNCALLED.keys() - _uncalled_public_functions())
    assert not stale, f"remove from UNCALLED: {stale}"


def test_every_default_is_overridden_by_a_caller():
    unset = _unset_defaults()
    assert not unset, f"defaulted parameters no call under src/qsu2 or perfbench/ passes: {unset}"


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def f(a, b):\n    return a\n", [("m", "f", "b")]),
        ("class C:\n    def g(self, x):\n        return super().g(1)\n", [("m", "C.g", "x")]),
        ("T = {'a': lambda r, k: r}\n", [("m", "T", "k")]),
        ("def f(*args, **kw):\n    return args\n", [("m", "f", "kw")]),
    ],
    ids=["def", "method-super", "table-lambda", "star-args"],
)
def test_the_parameter_scan_finds_an_unread_parameter(source, unread, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "MODULES", {"m": ast.parse(source)})
    assert _unread_parameters() == unread


def test_the_caller_scan_finds_an_uncalled_function(monkeypatch):
    # recursion is no caller
    source = "def used():\n    return 1\n\ndef caller():\n    return used()\n\ndef orphan():\n    return orphan()\n"
    monkeypatch.setattr(sys.modules[__name__], "MODULES", {"m": ast.parse(source)})
    assert _uncalled_public_functions() == {"m.caller", "m.orphan"}


def test_the_default_scan_finds_an_unset_default(monkeypatch):
    # a bench call by keyword, a method call by position past self, a call
    # through **kwargs, and an uncalled function, which is exempt
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    return a + b + c + d\n\n"
        "class C:\n    def g(self, x=0, y=1):\n        return x + y\n\n"
        "def h(p=0):\n    return p\n\n"
        "def orphan(z=0):\n    return z\n\n"
        "def caller(kw):\n    return f(0, 1) + C().g(2) + h(**kw)\n"
    )
    bench = "import m\nm.f(0, d=4)\n"
    monkeypatch.setattr(sys.modules[__name__], "MODULES", {"m": ast.parse(source)})
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", {"bench.py": ast.parse(bench)})
    assert _unset_defaults() == [("m", "f", "c"), ("m", "C.g", "y")]

"""The library's API surface, read from its source with `ast`.

Every parameter of every function and lambda in `src/qsu2` is read by its
body, unless a protocol fixes the signature (PROTOCOL_PARAMETERS).  Every
public module-level function has a caller under `src/qsu2`, unless
UNCALLED names it with its reason; callers in `perfbench/` and `tests/` do
not count.  UNCALLED only shrinks: an entry whose function gains a caller
fails until it is removed.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsu2"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}

# (module, owner, parameter): why the body need not read it.  A lambda's
# owner is the module-level name it is assigned under, a method's its class
PROTOCOL_PARAMETERS = {
    ("serialize", "_HashedFile.__exit__", "exc"): "the context-manager protocol passes the exception triple",
    ("schrodinger", "F1_BRANCHES", "k"): "every f1 form takes (r, k); a form free of the rate ignores it",
    ("schrodinger", "F2_BRANCHES", "k"): "every f2 form takes (r, k, F); a form free of the rate ignores it",
    ("schrodinger", "F2_BRANCHES", "F"): "every f2 form takes (r, k, F); a constant's derivatives ignore F",
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

"""Dead-code and coupling checks over the package source, by its syntax
tree alone.

An import a module never uses, a module-level private name nothing in the
package reads, a parameter default that no call overrides, or an exception
class that nothing raises is left over from a change that removed its last
use.  A module that reads another module's private constant depends on
how that module is tuned.
"""

import ast
import math
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hitlaw"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = [ast.parse(path.read_text(encoding="utf-8"))
                for path in sorted(TESTS.glob("*.py"))]


def _loaded_names(tree) -> set:
    """Names a module reads: loaded identifiers, attribute names and the
    names it imports from other modules of the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _module_level_names(tree):
    """(name, line) of each name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def test_no_unused_module_level_import():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":   # its imports are the public re-exports
            continue
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound if b not in reads]
    assert unused == []


def test_every_private_module_level_name_is_read():
    reads = set().union(*map(_loaded_names, MODULES.values()))
    unread = [f"{name}:{line} {ident}"
              for name, tree in MODULES.items()
              for ident, line in _module_level_names(tree)
              if ident.startswith("_") and not ident.startswith("__")
              and ident not in reads]
    assert unread == []


def _defaulted_parameters():
    """(where, callee, parameter, position) of each parameter with a default
    on a package function or method.  ``callee`` is the name a call uses
    (the class, for ``__init__``); ``position`` counts the arguments a call
    passes (self or cls excluded), None for a keyword-only parameter."""
    for name, tree in MODULES.items():
        scopes = [(None, tree.body)] + [(node.name, node.body)
                                        for node in ast.walk(tree)
                                        if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = fn.args
                positional = a.posonlyargs + a.args
                if cls is not None:   # a call never passes self or cls
                    positional = positional[1:]
                where = f"{name}:{fn.lineno} {fn.name}"
                callee = cls if fn.name == "__init__" else fn.name
                first = len(positional) - len(a.defaults)
                for pos in range(first, len(positional)):
                    yield where, callee, positional[pos].arg, pos
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield where, callee, arg.arg, None


def _call_arguments(trees) -> tuple:
    """Per callee name, the keywords any call passes (None for a ``**``
    splat, which passes them all) and the most positional arguments any call
    passes (infinite for a ``*`` splat)."""
    keywords: dict = {}
    positions: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            callee = (f.id if isinstance(f, ast.Name)
                      else f.attr if isinstance(f, ast.Attribute) else None)
            keywords.setdefault(callee, set()).update(k.arg for k in node.keywords)
            count = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positions[callee] = max(positions.get(callee, 0), count)
    return keywords, positions


def test_every_parameter_default_is_overridden_by_some_call():
    keywords, positions = _call_arguments(list(MODULES.values()) + TEST_MODULES)
    never = [f"{where}({param})"
             for where, callee, param, pos in _defaulted_parameters()
             if not ({param, None} & keywords.get(callee, set())
                     or (pos is not None and pos < positions.get(callee, 0)))]
    assert never == []


def test_every_error_class_is_raised():
    raised = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute)
                           else getattr(exc, "id", None))
    never = [node.name for node in MODULES["errors.py"].body
             if isinstance(node, ast.ClassDef) and node.name not in raised]
    assert never == []


def test_the_budget_and_each_cost_rule_have_one_owner():
    # config reads the budget and the driver applies it; each kind's cost
    # rule is stated once, in its price function
    owners = {"operation_budget": "_run_item", "_ledger_price": "_price_ledger",
              "shift cost": "_price_shift"}
    shift_cost = re.compile(r"\(.+ \+ (\w+\.)?n - 1\)")
    stray, found = [], set()
    for name, tree in MODULES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if (getattr(node, "attr", None) == "operation_budget"
                        or getattr(node, "value", None) == "operation_budget"):
                    rule = "operation_budget"
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                        == "_ledger_price":
                    rule = "_ledger_price"
                elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                      and shift_cost.search(ast.unparse(node))):
                    rule = "shift cost"
                else:
                    continue
                if name == "experiments.py" and getattr(top, "name", None) == owners[rule]:
                    found.add(rule)
                elif not (rule == "operation_budget" and name == "config.py"):
                    stray.append(f"{name}:{node.lineno} {rule}")
    assert stray == [] and found == set(owners)


def test_no_module_reads_another_modules_private_constant():
    # a private _UPPER_CASE constant tunes its own module; another module
    # that needs what follows from it asks its owner through a function
    private = re.compile(r"_[A-Z][A-Z0-9_]*$")
    modules = {name.removesuffix(".py") for name in MODULES}
    reads = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                reads += [f"{name}:{node.lineno} {a.name}" for a in node.names
                          if private.match(a.name)]
            elif (isinstance(node, ast.Attribute) and private.match(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                reads.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
    assert reads == []

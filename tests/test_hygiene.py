"""Dead-code checks over the package source, by its syntax tree alone.

An import a module never uses, or a module-level private name nothing in
the package reads, is left over from a change that removed its last use.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hitlaw"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


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

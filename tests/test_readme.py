"""The README's library sketch runs against the package as it is, so a
change to the public API cannot leave the sketch stale."""

import importlib
import pathlib
import pkgutil
import re

import hitlaw

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n")[1]
    section = section.split("\n## ")[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == code.count("print(")


def test_module_names_resolve():
    # each backticked `module.name` of a hitlaw module names one of its
    # attributes; file names and the one config key the README cites are not
    modules = {info.name for info in pkgutil.iter_modules(hitlaw.__path__)}
    names = set(re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8")))
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if module in modules and name not in ("csv", "json")
               and (module, name) != ("circle", "precision_bits")
               and not hasattr(importlib.import_module(f"hitlaw.{module}"), name)]
    assert not missing, missing

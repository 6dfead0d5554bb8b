"""The README's library sketch runs against the package as it is, so a
change to the public API cannot leave the sketch stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n")[1]
    section = section.split("\n## ")[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == code.count("print(")

"""The README's library example runs against the current public API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert abs(float(printed[0])) < 1e-12               # P(1, 0)
    assert printed[-1].startswith("0.531280506")         # dim E_{1,2}

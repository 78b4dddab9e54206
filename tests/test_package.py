import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import qcrd

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(qcrd.__all__)) == len(qcrd.__all__)
    for name in qcrd.__all__:
        assert hasattr(qcrd, name), name


def test_every_public_import_is_exported():
    tree = ast.parse(inspect.getsource(qcrd))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(qcrd.__all__)


def test_readme_examples_print_what_they_say():
    """Each ``python`` block of the README runs on its own, in order, and
    prints the values its comments state."""
    printed = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed += [[float(v) for v in line.split()] for line in out.getvalue().splitlines()]
    (dist,), (rate0,), (rate, dist_at), (rate_qsi,), (cmi,) = printed
    assert abs(dist - 0.25) <= 1e-12
    assert abs(rate0) <= 1e-12
    assert abs(rate - 0.172) <= 1e-3 and abs(dist_at - 0.10) <= 1e-6
    assert abs(rate_qsi - 0.160) <= 1e-3
    assert cmi == rate_qsi

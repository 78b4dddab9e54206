import ast
import inspect

import qcrd


def test_every_exported_name_resolves():
    assert len(set(qcrd.__all__)) == len(qcrd.__all__)
    for name in qcrd.__all__:
        assert hasattr(qcrd, name), name


def test_every_public_import_is_exported():
    tree = ast.parse(inspect.getsource(qcrd))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} == set(qcrd.__all__)

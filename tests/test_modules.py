import ast
import pathlib

import spinwire


def test_no_module_imports_a_private_name_from_a_sibling():
    # a convention two modules need lives public in the module that owns it
    package = pathlib.Path(spinwire.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "spinwire":
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders

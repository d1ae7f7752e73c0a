import ast
import inspect
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


def test_every_public_function_and_class_has_its_own_docstring():
    # a class's __doc__ is inherited from its base when it has none of its own
    missing = []
    for name in spinwire.__all__:
        obj = getattr(spinwire, name)
        if inspect.isclass(obj):
            doc = vars(obj).get("__doc__")
        elif inspect.isfunction(obj):
            doc = obj.__doc__
        else:
            continue
        if not (doc or "").strip():
            missing.append(name)
    assert not missing, missing

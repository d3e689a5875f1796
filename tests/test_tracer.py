"""The benchmark's tracer still fits the package: every name it wraps
exists, and removing the wrappers puts every original back.

`perfbench/tracing.py` looks its layers up by module and attribute name,
so renaming or deleting one of those names breaks only a traced benchmark
run (`perfbench/run.py --trace 1`); this test makes it break the suite
too."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harness_modules():
    """The package modules the harness imports: its `MODULES` tuple."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/harness.py defines no MODULES")


def namespaces(modules, layers):
    """Each module's namespace and each traced class's, as dict copies."""
    out = {name: dict(vars(mod)) for name, mod in modules.items()}
    for _group, modname, attr in layers:
        if "." in attr:
            cls_name = attr.split(".")[0]
            cls = getattr(modules[modname], cls_name)
            out[f"{modname}.{cls_name}"] = dict(vars(cls))
    return out


def test_install_wraps_every_layer_and_remove_restores_it():
    tracing = load_tracing()
    modules = {name: importlib.import_module(f"omegalogic.{name}")
               for name in harness_modules()}
    before = namespaces(modules, tracing.LAYERS)
    tracer = tracing.Tracer(modules)
    try:
        tracer.install()
        for _group, modname, attr in tracing.LAYERS:
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                wrapped = [vars(getattr(mod, cls_name))[meth]]
            else:
                wrapped = [vars(m).get(attr) for m in modules.values()]
            assert any(hasattr(w, "__wrapped__") for w in wrapped), \
                f"{modname}.{attr} is wrapped nowhere"
    finally:
        tracer.remove()
    after = namespaces(modules, tracing.LAYERS)
    assert after.keys() == before.keys()
    for name, names in before.items():
        assert after[name].keys() == names.keys(), name
        moved = [a for a, value in names.items() if after[name][a] is not value]
        assert moved == [], f"{name}: {moved} not restored"

"""Package hygiene: public API surface, docstrings, exports."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro", "repro.gpu", "repro.gpu.detailed", "repro.power",
            "repro.workloads", "repro.nn", "repro.datagen", "repro.core",
            "repro.baselines", "repro.hardware", "repro.evaluation",
            "repro.fleet", "repro.serve"]


def _walk_modules():
    modules = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__,
                                         prefix=name + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def test_every_module_imports_and_is_documented():
    for module in _walk_modules():
        assert module.__doc__ and module.__doc__.strip(), module.__name__


def test_every_package_all_resolves():
    for name in PACKAGES:
        package = importlib.import_module(name)
        exported = getattr(package, "__all__", [])
        for symbol in exported:
            assert hasattr(package, symbol), f"{name}.{symbol}"


def test_public_classes_and_functions_documented():
    """Every public item re-exported by a package has a docstring."""
    undocumented = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        for symbol in getattr(package, "__all__", []):
            obj = getattr(package, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{name}.{symbol}")
    assert not undocumented, undocumented


def test_public_methods_documented():
    """Public methods of public classes carry docstrings."""
    undocumented = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        for symbol in getattr(package, "__all__", []):
            obj = getattr(package, symbol)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited elsewhere
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(
                        f"{name}.{symbol}.{method_name}")
    assert not undocumented, undocumented


def test_version_exposed():
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)


def test_errors_hierarchy():
    from repro import errors
    for name in dir(errors):
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, Exception) \
                and obj is not Exception:
            assert issubclass(obj, errors.ReproError) \
                or obj is errors.ReproError


#: The only modules allowed to import the fused campaign engine: the
#: engine itself and the Fig. 4 grid runner, its one caller.
FUSED_IMPORTERS = {"repro.gpu.fused", "repro.evaluation.runner"}


def _imported_modules(tree: ast.Module, module: str, is_package: bool):
    """Absolute names of every module ``tree`` imports (or may import)."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            yield target
            # ``from repro.gpu import fused`` imports a submodule.
            yield from (f"{target}.{alias.name}" for alias in node.names)


def test_only_the_grid_runner_imports_the_fused_engine():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        if module not in FUSED_IMPORTERS and any(
                name == "repro.gpu.fused"
                or name.startswith("repro.gpu.fused.")
                for name in _imported_modules(tree, module, is_package)):
            offenders.append(module)
    assert offenders == []


def test_only_the_campaign_layer_builds_checkpoints_and_caches():
    """``repro.parallel`` owns the cache-or-build and checkpoint logic.

    Elsewhere, a ``CampaignCheckpoint(...)`` call or a
    ``*_cache_corrupt`` counter means the logic is being written again
    instead of going through ``campaign_checkpoint`` and ``cached``.
    """
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        if module == "repro.parallel":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "CampaignCheckpoint":
                    offenders.append(f"{module}:{node.lineno} checkpoint")
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.endswith("_cache_corrupt")):
                offenders.append(f"{module}:{node.lineno} corrupt counter")
    assert offenders == []


def _config_fields(root: Path):
    """``(class, field, where)`` for each field of a ``*Config`` or
    ``*Policy`` dataclass under ``root`` (``ClassVar`` constants aside)."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Config", "Policy"))
                    and any("dataclass" in ast.unparse(d)
                            for d in node.decorator_list)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield (node.name, stmt.target.id,
                           f"{path.name}:{stmt.lineno}")


#: Config fields kept although only tests set them: the end-to-end
#: benchmark harness constructs the fleet ``ThermalConfig``.
_CONFIG_FIELD_EXEMPTIONS = {"ThermalConfig.tau_s (tracker.py)"}


def test_every_config_field_is_set_somewhere():
    """A config field no program code sets by keyword is a constant in
    disguise.

    Every run uses its default, so it should be a named constant: the
    field doubles the configurations to test without any caller
    choosing a second value.  Only ``src/`` and ``benchmarks/`` count
    as callers; tests and examples do not justify an option.  Keywords
    count in any call (``dict(field=...)`` and ``replace(config,
    field=...)`` included) and as string keys of dict literals that are
    splatted into a constructor.
    """
    repo = Path(repro.__file__).parents[2]
    keywords = set()
    for folder in ("src", "benchmarks"):
        for path in sorted((repo / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    keywords.update(k.arg for k in node.keywords if k.arg)
                elif isinstance(node, ast.Dict):
                    keywords.update(k.value for k in node.keys
                                    if isinstance(k, ast.Constant))
    unset = [f"{cls}.{name} ({where.split(':')[0]})"
             for cls, name, where in _config_fields(repo / "src" / "repro")
             if name not in keywords]
    assert sorted(unset) == sorted(_CONFIG_FIELD_EXEMPTIONS)


EXAMPLES_DIR = Path(repro.__file__).parents[2] / "examples"


def _load_example(path: Path):
    """Import one example script as a module (its ``main`` not run)."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(EXAMPLES_DIR.glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_imports(path):
    """Every example imports against today's public API, so deleting a
    name an example uses fails here instead of in a user's hands."""
    assert callable(_load_example(path).main)


def test_hardware_cost_example_runs(capsys):
    _load_example(EXAMPLES_DIR / "hardware_cost.py").main()
    out = capsys.readouterr().out
    assert "cycles / inference" in out and "fixed-point ablation" in out

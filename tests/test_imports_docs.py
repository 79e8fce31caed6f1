"""Package hygiene: public API surface, docstrings, exports."""

import ast
import functools
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path
from typing import Iterator

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


REPO = Path(repro.__file__).parents[2]
SRC = REPO / "src" / "repro"


@functools.cache
def _parsed(folder: str) -> tuple:
    """``(path relative to src/repro or the repo, tree)`` per file of
    ``folder``, each node linked to its ``parent``."""
    trees = []
    for path in sorted((REPO / folder).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        root = SRC if folder == "src" else REPO
        trees.append((path.relative_to(root).as_posix(), tree))
    return tuple(trees)


def _trees(*folders: str):
    """``(path relative to src/repro or the repo, tree)`` per file."""
    for folder in folders:
        yield from _parsed(folder)


def _enclosing(node: ast.AST, kind: type):
    node = getattr(node, "parent", None)
    while node is not None and not isinstance(node, kind):
        node = getattr(node, "parent", None)
    return node


def _public_names():
    """``(name, "module:Qualified.name")`` for each public function,
    class, method and property of ``src/repro``."""
    for where, tree in _trees("src"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield node.name, f"{where}:{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield item.name, f"{where}:{node.name}.{item.name}"


#: Methods that, called as a statement, only put into (or take out of)
#: the container they are called on.
_CONTAINER_WRITES = {"add", "append", "appendleft", "clear", "discard",
                     "extend", "insert", "pop", "popleft", "remove",
                     "setdefault", "update"}


def _written_through(node: ast.AST) -> bool:
    """True when ``node`` (a loaded name or attribute) is only written
    through: the container of a subscript store (``x.f[k] = v``,
    ``x.f[k] += v``, ``del x.f[k]``) or of a mutating method called as
    a statement (``x.f.append(v)``)."""
    parent = node.parent
    if isinstance(parent, ast.Subscript):
        return parent.value is node and not isinstance(parent.ctx, ast.Load)
    call = getattr(parent, "parent", None)
    return (isinstance(parent, ast.Attribute)
            and parent.attr in _CONTAINER_WRITES
            and isinstance(call, ast.Call) and call.func is parent
            and isinstance(call.parent, ast.Expr))


@functools.cache
def _reads() -> frozenset:
    """``(kind, identifier)`` for every read in ``src/``,
    ``benchmarks/`` and ``examples/``: kind ``"name"`` or
    ``"attribute"`` for a loaded one, ``"string"`` for each dotted part
    of a string constant (``getattr`` and the benchmark's layer
    catalogue name code in strings).  Stores, deletes and writes
    through a container do not read; nor do ``__all__`` and
    ``__slots__`` lists or imports, which only declare a name."""
    reads = set()
    for _, tree in _trees("src", "benchmarks", "examples"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if (isinstance(node.ctx, ast.Load)
                        and not _written_through(node)):
                    reads.add(("name", node.id)
                              if isinstance(node, ast.Name)
                              else ("attribute", node.attr))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and not any(ast.unparse(target) in ("__all__", "__slots__")
                              for target in getattr(
                                  _enclosing(node, ast.Assign),
                                  "targets", ()))):
                reads.update(("string", part)
                             for part in node.value.split(".")
                             if part.isidentifier())
    return frozenset(reads)


def _read_names() -> set[str]:
    """Every identifier code in ``src/``, ``benchmarks/`` and
    ``examples/`` reads, as a name, an attribute or in a string."""
    return {identifier for _, identifier in _reads()}


#: Public names only tests call, each with the reason it stays.
_UNCALLED_NAME_EXEMPTIONS = {
    "evaluation/experiments.py:Fig3Result.pruning_dominates":
        "oracle: the Fig. 3 shape test states the paper's claim with it",
    "gpu/interval_model.py:frequency_sensitivity":
        "oracle: pins each phase family's speed-up per clock step",
    "gpu/interval_model.py:ThroughputSolution.time_for_instructions":
        "oracle: the reference sequential sum the epoch engine must match",
    "nn/metrics.py:within_one_accuracy":
        "oracle: the pipeline tests bound the Decision-maker's level error",
    "workloads/serialization.py:kernel_to_dict":
        "oracle: writes the kernel files load_kernels must read back",
    "faults.py:FlakyTask":
        "test support: the retrying task the campaign-layer tests run",
    "workloads/generator.py:random_suite":
        "test support: the property tests' random kernels",
    "gpu/fused.py:run_fused":
        "fused engine: deleted whole with its plumbing, not piecemeal",
}


def test_every_public_name_has_a_program_caller():
    """A public function, class, method or property that only tests
    call is test-only code in the program: delete it or, when a test
    uses it as an oracle for other program behaviour, exempt it with
    its reason.  The match is by name, so a caller of an equal name
    elsewhere keeps a definition alive (never the other way round)."""
    read = _read_names()
    uncalled = {where for name, where in _public_names() if name not in read}
    assert uncalled == set(_UNCALLED_NAME_EXEMPTIONS)


def _defaulted_parameters():
    """``(callee, slot, name, "module:Qualified.function")`` for every
    defaulted parameter in ``src/repro``.  ``callee`` is the name a call
    uses (the class for ``__init__``); ``slot`` is the positional index
    a caller fills after any bound ``self``/``cls``, None when the
    parameter is keyword-only."""
    for where, tree in _trees("src"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = node.parent if isinstance(node.parent, ast.ClassDef) \
                else None
            static = any(ast.unparse(d) == "staticmethod"
                         for d in node.decorator_list)
            bound = 1 if cls is not None and not static else 0
            callee = cls.name if node.name == "__init__" else node.name
            qualified = f"{where}:{cls.name + '.' if cls else ''}{node.name}"
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for slot, arg in enumerate(positional[first:], first - bound):
                yield callee, slot, arg.arg, qualified
            for arg, default in zip(node.args.kwonlyargs,
                                    node.args.kw_defaults):
                if default is not None:
                    yield callee, None, arg.arg, qualified


def _callee(call: ast.Call, classes: dict) -> str | None:
    """The name ``call`` invokes: ``cls(...)``, ``self.__init__(...)``
    and ``super().__init__(...)`` resolve against the enclosing class,
    and a class without its own ``__init__`` to the base that has one."""
    func = call.func
    if isinstance(func, ast.Name):
        name = (_enclosing(call, ast.ClassDef).name if func.id == "cls"
                else func.id)
    elif isinstance(func, ast.Attribute) and func.attr == "__init__":
        cls = _enclosing(call, ast.ClassDef)
        name = (ast.unparse(cls.bases[0]).split(".")[-1]
                if isinstance(func.value, ast.Call)
                and ast.unparse(func.value.func) == "super" else cls.name)
    elif isinstance(func, ast.Attribute):
        return func.attr
    else:
        return None
    while name in classes and classes[name] is not None:
        name = classes[name]  # inherits its base's __init__
    return name


def _passed_arguments() -> set[tuple]:
    """``(callee, slot or keyword)`` for every argument a call in
    ``src/`` or ``benchmarks/`` passes, ``functools.partial`` included;
    ``"*"`` / ``"**"`` stand for every slot / keyword.  A ``**kwargs``
    that a function passes on unchanged forwards its own callers'
    keywords."""
    classes = {}  # class -> base it inherits __init__ from, or None
    for _, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name not in classes:
                own = any(isinstance(item, ast.FunctionDef)
                          and item.name == "__init__" for item in node.body)
                classes[node.name] = (
                    None if own or not node.bases
                    else ast.unparse(node.bases[0]).split(".")[-1])
    passed, forwards = set(), set()
    for _, tree in _trees("src", "benchmarks"):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee, args = _callee(call, classes), call.args
            if callee == "partial" and args:
                bound = ast.Call(func=args[0], args=[], keywords=[])
                bound.parent = call.parent
                callee, args = _callee(bound, classes), args[1:]
            if callee is None:
                continue
            for slot, arg in enumerate(args):
                passed.add((callee,
                            "*" if isinstance(arg, ast.Starred) else slot))
            function = _enclosing(call, ast.FunctionDef)
            own_kwargs = (function.args.kwarg.arg
                          if function and function.args.kwarg else None)
            for keyword in call.keywords:
                value = keyword.value
                if keyword.arg is not None:
                    passed.add((callee, keyword.arg))
                elif isinstance(value, ast.Dict):
                    passed.update((callee, key.value) for key in value.keys
                                  if isinstance(key, ast.Constant))
                elif isinstance(value, ast.Name) and value.id == own_kwargs:
                    outer = function.name
                    if outer == "__init__":
                        outer = _enclosing(function, ast.ClassDef).name
                    forwards.add((outer, callee))
                else:
                    passed.add((callee, "**"))
    for _ in forwards:
        passed |= {(inner, keyword) for outer, inner in forwards
                   for callee, keyword in list(passed)
                   if callee == outer and isinstance(keyword, str)}
    return passed


#: Defaulted parameters no program call passes, each with the reason
#: it stays.
_UNPASSED_PARAMETER_EXEMPTIONS = {
    "cli.py:main(argv)":
        "the console entry point reads sys.argv; tests pass argv",
    "core/pipeline.py:build_ssmdvfs(variants)":
        "the examples build the base variant alone to run in seconds",
    "gpu/interval_model.py:SolutionCache.__init__(max_entries)":
        "the starved-cache identity tests bound the cache",
    "gpu/counters.py:CounterSet.__init__(values)":
        "test support: tests build counter sets from a name-to-value dict",
    "evaluation/robustness.py:seed_sweep(fused)":
        "fused engine plumbing: deleted whole with the engine",
    "evaluation/robustness.py:seed_sweep(fuse_width)":
        "fused engine plumbing: deleted whole with the engine",
    "gpu/fused.py:run_fused(keep_records)":
        "fused engine: deleted whole with its plumbing",
    "gpu/fused.py:run_fused(max_epochs)":
        "fused engine: deleted whole with its plumbing",
    "gpu/fused.py:run_fused(stats_counters)":
        "fused engine: deleted whole with its plumbing",
    **{f"gpu/interval_model.py:solve_throughput({name}_multiplier)":
       "oracle: the one-row solve the batched solver is checked against"
       for name in ("warp", "miss", "cpi")},
    **{f"faults.py:FlakyTask.__init__({name})":
       "test support: the retrying task the campaign-layer tests run"
       for name in ("mode", "hang_s", "faults_per_task")},
    **{f"workloads/generator.py:{name}":
       "test support: the property tests' random kernels"
       for name in ("random_kernel(max_phases)",
                    "random_kernel(max_iterations)",
                    "random_kernel(max_instructions)",
                    "random_suite(count)")},
}


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter no call in ``src/`` or ``benchmarks/``
    passes is a constant in disguise (the function-level twin of
    :func:`test_every_config_field_is_set_somewhere`): every run uses
    its default, so it should be a named constant.  A call passes it by
    keyword, by position, through ``functools.partial``, or through a
    ``**``/``*`` splat.  Matching is by callee name."""
    passed = _passed_arguments()
    unpassed = set()
    for callee, slot, name, where in _defaulted_parameters():
        if {(callee, name), (callee, "**")} & passed:
            continue
        if slot is not None and {(callee, slot), (callee, "*")} & passed:
            continue
        unpassed.add(f"{where}({name})")
    assert unpassed == set(_UNPASSED_PARAMETER_EXEMPTIONS)


def _assigned_names(body: list) -> Iterator[ast.Name]:
    """The names that plain or annotated assignments in ``body`` bind."""
    for stmt in body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                   else [])
        for target in targets:
            yield from (node for node in ast.walk(target)
                        if isinstance(node, ast.Name))


def _stored_state():
    """``(name, "module:Class.name", field)`` for each piece of state a
    class in ``src/repro`` stores.  ``field`` is True for an annotated
    name in its body (a dataclass or named-tuple field) and for each
    ``self.<name>`` assignment target in its methods, False for a class
    constant assigned in its body."""
    for where, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for name in _assigned_names(node.body):
                    if not name.id.startswith("__"):
                        yield (name.id, f"{where}:{node.name}.{name.id}",
                               isinstance(name.parent, ast.AnnAssign))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and ast.unparse(node.value) == "self"):
                cls = _enclosing(node, ast.ClassDef).name
                yield node.attr, f"{where}:{cls}.{node.attr}", True


#: Stored state no program code reads by attribute, each with the
#: reason it stays.
_UNREAD_STATE_EXEMPTIONS = {
    "gpu/simulator.py:EpochRecord.start_time_s":
        "pinned: the golden simulator digests cover every record field",
    "datagen/protocol.py:BreakpointSamples.breakpoint_index":
        "pinned: the golden datagen_chunk digest covers every sample field",
    "datagen/protocol.py:BreakpointSamples.segment_losses":
        "pinned: the golden datagen_chunk digest covers the paper's "
        "literal (T_f - T0)/T0",
    "evaluation/soak.py:KernelSoak.baseline_epochs":
        "exported: CertifyResult.to_payload writes each row with asdict",
    "fleet/metrics.py:ShedJob.shed_s":
        "exported: ShedJob.to_payload writes every field with asdict",
    "gpu/interval_model.py:BatchSolution.bandwidth_limited":
        "oracle: solve_throughput copies every field (dataclasses.fields) "
        "into the one-row view the tests check",
    "gpu/interval_model.py:ThroughputSolution.bandwidth_limited":
        "oracle: the one-row solve the batched solver is checked against",
    "gpu/quantum.py:SolveWindow.bw":
        "read by tuple unpacking in the quantum walk",
    "nn/trainer.py:TrainHistory.val_losses":
        "oracle: the trainer tests check the best-epoch restore against it",
    "errors.py:CampaignError.task_id":
        "error payload: names the failed task to whoever catches it",
    "gpu/fused.py:_FusedTask.task_id":
        "fused engine: deleted whole with its plumbing",
}


def test_every_stored_field_is_read():
    """A field or attribute that the program writes and nothing reads
    is work done for nothing: delete it, and whatever computes it.  A
    read is an attribute load or a string naming it (``getattr``); a
    store, or a write through it as a container (``x.f[k] = v``,
    ``x.f.append(v)``), is not.  A class constant may also be read by
    bare name in its class body.  Reflection (``asdict``, ``vars``,
    ``dataclasses.fields``) reads a class's fields without naming them,
    so those classes are exempt by name.  The match is by name, so a
    read of an equal name elsewhere keeps a field alive."""
    by_attribute = {identifier for kind, identifier in _reads()
                    if kind != "name"}
    by_any = _read_names()
    unread = {where for name, where, field in _stored_state()
              if name not in (by_attribute if field else by_any)}
    assert unread == set(_UNREAD_STATE_EXEMPTIONS)


#: Module constants nothing reads, each with the reason it stays.
_UNREAD_CONSTANT_EXEMPTIONS = {
    "__init__.py:__version__": "the package version, read by its users",
}


def test_every_module_constant_is_read():
    """A module-level name that no code in ``src/``, ``benchmarks/``
    or ``examples/`` reads is dead: ``__all__`` re-exports and the
    assignment itself do not count."""
    read = _read_names() | {"__all__"}
    unread = {f"{where}:{name.id}" for where, tree in _trees("src")
              for name in _assigned_names(tree.body) if name.id not in read}
    assert unread == set(_UNREAD_CONSTANT_EXEMPTIONS)


def _is_stub(function: ast.FunctionDef) -> bool:
    """True when the body only declares an interface: a docstring,
    ``pass``, ``...`` or ``raise NotImplementedError``."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                      ast.Constant))
        or (isinstance(stmt, ast.Raise) and stmt.exc is not None
            and ast.unparse(stmt.exc).startswith("NotImplementedError"))
        for stmt in function.body)


#: Parameters their function never reads, each with the reason it
#: stays.
_UNREAD_PARAMETER_EXEMPTIONS = {
    "cli.py:cmd_suites(args)":
        "interface: every subcommand handler takes the parsed arguments",
    "core/policy.py:StaticPolicy.decide(record)":
        "interface: the DVFSPolicy protocol's decide(record)",
    "core/policy.py:ModelOraclePolicy.decide(record)":
        "interface: the DVFSPolicy protocol's decide(record)",
    "evaluation/fleet_chaos.py:replay(run_name)":
        "interface: run_trials' replay callback; the serve-chaos one "
        "reads it",
}


def test_every_parameter_is_read():
    """A parameter its function never reads makes every caller pass a
    value for nothing.  Stubs that only declare an interface are
    skipped; an implementation that must take a parameter it does not
    need is exempt by name."""
    unread = set()
    for where, tree in _trees("src"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or _is_stub(node):
                continue
            loaded = {name.id for name in ast.walk(node)
                      if isinstance(name, ast.Name)
                      and isinstance(name.ctx, ast.Load)}
            cls = _enclosing(node, ast.ClassDef)
            qualified = f"{where}:{cls.name + '.' if cls else ''}{node.name}"
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if (arg is not None and arg.arg not in ("self", "cls")
                        and arg.arg not in loaded):
                    unread.add(f"{qualified}({arg.arg})")
    assert unread == set(_UNREAD_PARAMETER_EXEMPTIONS)


def test_every_import_is_read():
    """A module-level import in ``src/``, ``tests/``, ``benchmarks/``
    or ``examples/`` that its module never reads is dead.  A package's
    ``__init__.py`` imports to re-export, a name in ``__all__`` is
    re-exported, and ``from __future__`` imports change the compiler,
    so none of those count."""
    unread = []
    for where, tree in _trees("src", "tests", "benchmarks", "examples"):
        if where.endswith("__init__.py"):
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and ast.unparse(stmt.targets[0]) == "__all__"):
                read.update(item.value for item in stmt.value.elts)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or _enclosing(node, (ast.FunctionDef, ast.ClassDef))
                    or getattr(node, "module", None) == "__future__"):
                continue
            unread.extend(f"{where}:{node.lineno} {name}"
                          for alias in node.names
                          for name in [alias.asname
                                       or alias.name.split(".")[0]]
                          if name != "*" and name not in read)
    assert unread == []


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

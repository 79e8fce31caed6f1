"""Experiment registry: completeness and consistency with the repo."""

from pathlib import Path

from repro.evaluation.registry import all_experiments, render_registry

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_paper_artifacts_all_registered():
    ids = {e.experiment_id for e in all_experiments() if not e.extension}
    assert ids == {"table1", "table2", "fig3", "fig4", "hw"}


def test_every_bench_file_exists():
    for entry in all_experiments():
        assert (REPO_ROOT / entry.bench).exists(), entry.bench


def test_every_registered_module_imports():
    import importlib
    for entry in all_experiments():
        for module in entry.modules:
            importlib.import_module(module)


def test_every_bench_file_is_registered():
    registered = {(REPO_ROOT / e.bench).name for e in all_experiments()}
    on_disk = {p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    # Substrate-speed benches need not reproduce an artefact.
    allowed_unregistered = {"bench_sim_throughput.py",
                            "bench_training_pipeline.py"}
    assert on_disk - registered <= allowed_unregistered


def test_ids_unique():
    ids = [e.experiment_id for e in all_experiments()]
    assert len(ids) == len(set(ids))


def test_render_registry():
    text = render_registry()
    assert "table1" in text and "mixed-tenancy" in text
    paper_only = render_registry(extensions=False)
    assert "mixed-tenancy" not in paper_only


def test_drivers_resolve():
    import importlib
    for entry in all_experiments():
        if entry.driver.startswith("("):
            continue
        module_name, attr = entry.driver.rsplit(".", 1)
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), entry.driver

"""Command-line interface (smoke-level, reduced configurations)."""

import pytest

from repro.cli import build_parser, main


def test_parser_builds_and_lists_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in ("suites", "datagen", "stats", "train", "evaluate",
                    "hardware", "run"):
        assert command in help_text


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_suites_command(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    assert "rodinia.bfs" in out
    assert "eval/unseen" in out
    assert "train" in out


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    """A small CLI dataset cache shared by the pipeline commands."""
    cache = tmp_path_factory.mktemp("cli-cache")
    code = main(["datagen", "--small", "--cache", str(cache),
                 "--breakpoints", "2", "--seed", "1"])
    assert code == 0
    return cache


def test_datagen_is_cached(cli_cache, capsys):
    # Second invocation must hit the cache (fast) and report the same.
    assert main(["datagen", "--small", "--cache", str(cli_cache),
                 "--breakpoints", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "dataset ready" in out


def test_stats_command(cli_cache, capsys):
    assert main(["stats", "--small", "--cache", str(cli_cache),
                 "--breakpoints", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Dataset diagnostics" in out


@pytest.fixture(scope="module")
def cli_model(cli_cache, tmp_path_factory, capsys=None):
    out_dir = tmp_path_factory.mktemp("cli-artifacts")
    code = main(["train", "--small", "--cache", str(cli_cache),
                 "--breakpoints", "2", "--seed", "1",
                 "--epochs", "30", "--out", str(out_dir)])
    assert code == 0
    return out_dir / "pruned"


def test_train_saves_all_variants(cli_model):
    base = cli_model.parent
    for variant in ("base", "compressed", "pruned"):
        assert (base / variant / "meta.json").exists()


def test_evaluate_command(cli_model, tmp_path, capsys):
    export = tmp_path / "fig4.json"
    code = main(["evaluate", "--small", "--model", str(cli_model),
                 "--kernels", "2", "--preset", "0.1",
                 "--duration-us", "150", "--seed", "1",
                 "--export", str(export)])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalized EDP" in out or "Fig. 4" in out
    assert export.exists()


def test_hardware_command(cli_model, capsys):
    assert main(["hardware", "--model", str(cli_model)]) == 0
    out = capsys.readouterr().out
    assert "cycles / inference" in out


def test_run_command(cli_model, capsys):
    code = main(["run", "--small", "--model", str(cli_model),
                 "--kernel", "rodinia.hotspot", "--duration-us", "150",
                 "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalized EDP" in out


# ---------------------------------------------------------------------------
# Each subcommand accepts only the flags it reads
# ---------------------------------------------------------------------------

#: Required flags per subcommand, so a parse fails only on the probe.
_REQUIRED = {"hardware": ["--model", "m"], "run": ["--model", "m"],
             "evaluate": ["--model", "m"]}

#: Subcommands whose ``--preset`` is a single float.
SINGLE_PRESET = ("run", "faults", "soak", "fleet", "fleet-chaos", "serve",
                 "serve-chaos")

#: Campaign flags with a value to pass when probing them.
_FLAG_VALUES = {"--seed": "1", "--workers": "2", "--retries": "1",
                "--task-timeout": "5", "--fuse-width": "4"}

_RESILIENCE = ("--no-cache", "--checkpoint", "--retries", "--task-timeout")
_FUSED = ("--fused", "--fuse-width")

#: (subcommand, flag) pairs the subcommand never read; all rejected.
REMOVED_FLAGS = (
    [("hardware", flag) for flag in ("--seed", "--small", "--workers",
                                     "--stats", *_RESILIENCE, *_FUSED)]
    + [("run", flag) for flag in ("--workers", *_RESILIENCE, *_FUSED)]
    + [("faults", flag) for flag in _RESILIENCE]
    + [("soak", flag) for flag in ("--checkpoint", "--retries",
                                   "--task-timeout", *_FUSED)]
    + [("fleet", "--no-cache")]
    + [(command, flag) for command in ("fleet-chaos", "serve", "serve-chaos")
       for flag in (*_RESILIENCE, *_FUSED)])


def _parse(command, *extra):
    return build_parser().parse_args(
        [command, *_REQUIRED.get(command, []), *extra])


def test_removed_flag_list_is_complete():
    assert len(set(REMOVED_FLAGS)) == 45


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_unread_flag_is_rejected(command, flag, capsys):
    value = [_FLAG_VALUES[flag]] if flag in _FLAG_VALUES else []
    with pytest.raises(SystemExit) as exit_info:
        _parse(command, flag, *value)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", SINGLE_PRESET)
def test_preset_is_a_single_float(command, capsys):
    assert _parse(command, "--preset", "0.2").preset == 0.2
    with pytest.raises(SystemExit) as exit_info:
        _parse(command, "--preset", "0.1", "0.2")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: 0.2" in capsys.readouterr().err


def test_evaluate_keeps_a_preset_list():
    assert _parse("evaluate", "--preset", "0.1", "0.2").preset == [0.1, 0.2]


def test_per_command_defaults_do_not_leak():
    assert _parse("soak").store == ".cache/store"
    assert _parse("soak").crash_trials == 32
    assert _parse("fleet-chaos").store == ".cache/chaos-store"
    assert _parse("fleet-chaos").crash_trials == 16
    assert _parse("serve-chaos").store == ".cache/serve-chaos-store"
    assert _parse("serve").store is None
    assert (_parse("fleet").nodes, _parse("fleet-chaos").nodes) == (16, 4)

"""The configs that ``bench/run.py`` and ``tools/quality.py`` write load
under the closed schema, so a field the schema drops or narrows cannot
turn every benchmark or quality run into an ``E_CONFIG`` line."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cosep import cli

ROOT = Path(__file__).resolve().parent.parent


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


sys.path.insert(0, str(ROOT / "bench"))   # run.py imports tracer.py beside it
try:
    bench = load_module("bench_run", ROOT / "bench" / "run.py")
finally:
    sys.path.remove(str(ROOT / "bench"))
quality = load_module("quality", ROOT / "tools" / "quality.py")


@pytest.mark.parametrize("nmf", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 5])
def test_bench_configs_load(workload, nmf, seed):
    cfg = cli.normalize_config(bench.config(bench.WORKLOADS[workload], seed, nmf))
    assert cfg["schedule"]["symmetric"] is True and cfg["eval"]["include_nmf"] is nmf


class Written(Exception):
    """Stops ``run_seed`` at its first command, after it wrote the config."""


def test_quality_seed_configs_load(tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise Written

    monkeypatch.setattr(quality, "run_pinned", stop)
    for seed in range(5):
        with pytest.raises(Written):
            quality.run_seed(seed, tmp_path, ROOT / "src", cpu=0)
        cfg = cli.load_config(tmp_path / f"seed{seed}" / "cosep.json")
        assert cfg["model"]["seed"] == seed

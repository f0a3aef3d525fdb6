"""What each entry point imports: `import amber` is lazy, the CLI loads everything.

Most checks run a fresh interpreter, since this test process has already
imported every amber module.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amber
from amber.dataio import SynthConfig, generate_synthetic, save_jsonl

SRC = Path(amber.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# name -> the submodule that defines it, in the order of `amber.__all__`
EXPORTS = {
    "DataValidationError": "errors", "Dataset": "dataio", "EvalReport": "evalreport",
    "LossConfig": "losses", "ModelConfig": "model",
    "NumericalAbortError": "errors", "OptState": "trainer", "RunRecord": "trainer", "SoftLabel": "distlib",
    "SynthConfig": "dataio", "TrainConfig": "trainer", "all_metrics": "evalreport", "amber_loss": "losses",
    "ambiguity_bins": "evalreport", "autodiff": None, "cbce_loss": "losses", "class_weights_from": "losses",
    "cross_validate": "trainer", "dataio": None, "dist_metrics": "evalreport",
    "distlib": None, "emit_report": "evalreport", "errors": None, "evalreport": None,
    "expert_weights": "losses", "fold_split": "dataio", "forward_all": "model", "fuse": "model",
    "generate_synthetic": "dataio", "init_opt_state": "trainer",
    "init_params": "model", "load_checkpoint": "model", "load_jsonl": "dataio", "losses": None, "model": None,
    "opt_step": "trainer", "save_checkpoint": "model", "save_jsonl": "dataio", "train_one": "trainer",
    "trainer": None,
}


def run_python(code, *args):
    """The JSON that `code`, run in a fresh interpreter on this source tree, prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _amber_modules(modules):
    return sorted(m for m in modules if m == "amber" or m.startswith("amber."))


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "ds.jsonl"
    save_jsonl(generate_synthetic(SynthConfig(30, 3, 4, 4, 5, 0.7, 0.3, 0.4, seed=1, fold_count=3)), path)
    return path


def test_a_load_imports_only_dataio_and_errors(dataset):
    code = ("import json, sys, amber; ds = amber.load_jsonl(sys.argv[1]); "
            "print(json.dumps([len(ds), sorted(sys.modules)]))")
    for _ in ("cold", "warm"):
        rows, modules = run_python(code, dataset)
        assert rows == 30
        assert _amber_modules(modules) == ["amber", "amber.dataio", "amber.errors"]
        assert "concurrent.futures" not in modules and "csv" not in modules


def _traced_modules():
    """The modules named in the SPANNED and COUNTED tables of bench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = [node.value for node in tree.body
              if isinstance(node, ast.Assign) and {t.id for t in node.targets} & {"SPANNED", "COUNTED"}]
    assert len(tables) == 2
    return {row.elts[0].value for table in tables for row in table.elts}


@pytest.mark.skipif(not TRACING.is_file(), reason="needs the benchmark sources")
def test_the_cli_imports_every_module_the_benchmark_patches():
    traced = _traced_modules()
    assert {"cli", "trainer", "model", "autodiff", "losses", "evalreport", "dataio", "distlib"} <= traced
    modules = run_python("import json, sys, amber.cli; print(json.dumps(sorted(sys.modules)))")
    assert {f"amber.{name}" for name in traced} <= set(modules)


def test_train_at_one_job_never_imports_the_process_pool(dataset, tmp_path):
    code = ("import json, sys; from amber.cli import main; "
            "code = main(['train', '--data', sys.argv[1], '--out-dir', sys.argv[2], '--epochs', '1', "
            "'--hidden', '4', '--fusion-dim', '4', '--seeds', '1', '--bins', '2', '--jobs', '1']); "
            "print(json.dumps([code, sorted(sys.modules)]))")
    code, modules = run_python(code, dataset, tmp_path / "run")
    assert code == 0 and (tmp_path / "run" / "report.json").is_file()
    assert not [m for m in modules if m.startswith(("concurrent", "multiprocessing"))]


def test_all_keeps_its_names_and_each_is_its_modules_own_object():
    assert amber.__all__ == list(EXPORTS)
    assert len(amber.__all__) == 40 and sum(module is None for module in EXPORTS.values()) == 8
    for name, module in EXPORTS.items():
        home = importlib.import_module(f"amber.{module or name}")
        assert getattr(amber, name) is (home if module is None else vars(home)[name]), name
    assert set(amber.__all__) <= set(dir(amber))


def test_an_unknown_name_is_an_attribute_error_and_from_imports_still_work():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        amber.no_such_name  # noqa: B018
    code = ("import json, sys, amber; from amber import autodiff as ad; from amber import TrainConfig; "
            "print(json.dumps([ad is sys.modules['amber.autodiff'], TrainConfig.__module__, "
            "hasattr(amber, 'no_such_name'), amber.__version__]))")
    assert run_python(code) == [True, "amber.trainer", False, "0.1.0"]

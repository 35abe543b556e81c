import os
import re
import subprocess
import sys
from pathlib import Path

import fdwiretap

# One desk trial with every scipy import made to fail.
SCIPY_FREE_TRIAL = """
import sys
sys.modules["scipy"] = None
from fdwiretap import harness
cfg = harness.ExperimentConfig.from_dict({
    "M_a": 2, "M_bt": 2, "M_br": 2, "M_e": 2, "N": 2,
    "kappa_db": -30.0, "beta_db": -30.0, "trials": 1, "master_seed": 1802,
    "strategies": ["Optimal-FD", "Optimal-HD", "Equal-FD", "Equal-HD"]})
rows = harness.run_experiment(cfg).trial_rows
assert len(rows) == 4, rows
assert all(row.status != "NumericalTrouble" for row in rows), rows
"""


def test_all_exports_resolve():
    missing = [name for name in fdwiretap.__all__
               if not hasattr(fdwiretap, name)]
    assert missing == []


def test_one_version_string():
    result = fdwiretap.ExperimentResult(config_echo={}, master_seed=0,
                                        trial_rows=[])
    assert result.version == f"fdwiretap-{fdwiretap.__version__}"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'version = "{fdwiretap.__version__}"' in pyproject.read_text()


def test_a_desk_trial_runs_without_scipy():
    src = str(Path(fdwiretap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_TRIAL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_linalg_is_the_one_lapack_caller_and_loops_set_no_errstate():
    """No module but linalg names numpy's LAPACK gufuncs or calls an
    np.linalg function other than norm (and LinAlgError, which it may
    catch).  maxdet, bcd and system_model run their loops inside
    linalg.guarded(), so none of them sets an np.errstate of its own."""
    src = Path(fdwiretap.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name != "linalg.py":
            assert "_umath_linalg" not in text, path.name
            assert not re.search(r"from numpy\.linalg import|import numpy"
                                 r"\.linalg|from numpy import .*\blinalg\b",
                                 text), path.name
            used = set(re.findall(r"\b(?:np|numpy)\.linalg\.(\w+)", text))
            assert used <= {"norm", "LinAlgError"}, (path.name, used)
        if path.name in ("maxdet.py", "bcd.py", "system_model.py"):
            assert "errstate" not in text, path.name

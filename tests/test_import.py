"""Cold start: importing the package loads numpy but no scipy module, and the
functions that call scipy import it on their first call with unchanged
values.  Each check runs in a fresh interpreter, because the test process
itself has scipy loaded."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from stable_hitting import distributions, numerics, verify

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED_SCIPY = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")

# One call to each function that imports scipy in its own body.
LAZY_CALLS = (
    "numerics.integrate_adaptive(lambda x: math.exp(-x * x), 0.0, math.inf)",
    "distributions.beta_prime_density(0.5, 2.0, 1.3)",
    "distributions.z_density(2.5, 0.3)",
    "distributions.meixner_density(0.5, 1.3, 0.4)",
    "verify._stieltjes_reference(1.0, 0.5, 0.25, 0.5)",
)


def _fresh(code: str):
    """JSON that ``code`` prints as its last line, in a new interpreter
    that finds the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = _fresh("import json, sys\n"
                    "import stable_hitting, stable_hitting.cli\n"
                    f"print(json.dumps({_LOADED_SCIPY}))")
    assert loaded == []


def test_cli_eval_and_invert_load_no_scipy():
    codes, loaded = _fresh(
        "import json, sys\n"
        "from stable_hitting import cli\n"
        "codes = [cli.main(['eval', 'lt-T', '--alpha', '1.5', '--q', '0.5,2',"
        " '--a', '1']),\n"
        "         cli.main(['invert', 'lt-T', '--alpha', '1.5', '--a', '1',"
        " '--t', '0.5,1,2'])]\n"
        f"print(json.dumps([codes, {_LOADED_SCIPY}]))")
    assert codes == [0, 0]
    assert loaded == []


def test_cli_sample_gamma_series_loads_no_scipy():
    code, loaded = _fresh(
        "import json, sys\n"
        "from stable_hitting import cli\n"
        "code = cli.main(['sample', 'gamma-series', '--a', '0.5', '--t', '1',"
        " '-n', '3', '--summary'])\n"
        f"print(json.dumps([code, {_LOADED_SCIPY}]))")
    assert code == 0
    assert loaded == []


def test_lazy_imports_give_in_process_values():
    fresh = _fresh("import json, math\n"
                   "from stable_hitting import distributions, numerics, verify\n"
                   f"print(json.dumps([{', '.join(LAZY_CALLS)}]))")
    scope = {"math": math, "numerics": numerics, "distributions": distributions,
             "verify": verify}
    here = [eval(call, scope) for call in LAZY_CALLS]
    assert fresh == json.loads(json.dumps(here))


def test_z_density_series_range_loads_no_scipy():
    # from a = 30 on the normaliser is a series and betaln is not called
    loaded = _fresh("import json, sys\n"
                    "from stable_hitting import distributions\n"
                    "distributions.z_density(30.0, 0.3)\n"
                    "distributions.z_density(1e308, 0.0)\n"
                    f"print(json.dumps({_LOADED_SCIPY}))")
    assert loaded == []

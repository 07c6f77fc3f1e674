"""``scripts/agreement.py compare``: the optional relative-difference gate."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "agreement.py"


def _compare(tmp_path, bj_new: float, *rtol: str):
    paths = []
    for name, bj in (("base", 0.25), ("new", bj_new)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"scan/r0/a": {"GBJ": [0.5], "BJ": [bj], "flags": []},
                                    "objective_calls": {}}))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPT), "compare", *paths, *rtol],
                          capture_output=True, text=True)


def test_rtol_names_each_output_beyond_it(tmp_path):
    moved = 0.25 * (1.0 + 1e-12)
    out = _compare(tmp_path, moved, "1e-13")
    assert out.returncode == 1
    assert "scan\tBJ differs by 1e-12 relative, more than 1e-13" in out.stdout
    assert "GBJ differs" not in out.stdout
    assert _compare(tmp_path, moved, "1e-11").returncode == 0
    assert _compare(tmp_path, moved).returncode == 0     # no RTOL: a report only

"""What importing the serving path loads, checked in fresh interpreters.

The packages re-export their public names on first read (PEP 562, see
``repro/_lazy.py``), so importing the service compiles only the modules it
uses.  A module-level import that drags a dev-only or single-host module
back onto the serving path fails here, as does a re-exported name that no
longer resolves.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.scheduler",
    "repro.ml",
    "repro.perfsim",
    "repro.topology",
    "repro.migration",
    "repro.containers",
    "repro.serving",
)

#: Modules serving never runs, which importing the service must not load.
OFF_THE_SERVING_PATH = (
    "numpy.ma",
    "repro.analysis",
    "repro.serving",
    "repro.cli",
    "repro.ml.kmeans",
    "repro.core.clustering",
    "repro.core.interleaving",
    "repro.containers.host",
    "repro.perfsim.hpe",
)


def _run(code: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_serving_path_leaves_the_rest_unloaded():
    loaded = _run(
        f"""
        import sys
        import repro.scheduler.service, repro.scheduler.lifecycle
        from repro.ml.forest import RandomForestRegressor
        import numpy as np

        x = np.arange(40.0).reshape(20, 2)
        RandomForestRegressor(n_estimators=3, random_state=0).fit(x, x[:, 0]).arena()
        print([m for m in {OFF_THE_SERVING_PATH!r} if m in sys.modules])
        """
    )
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    out = _run(
        f"""
        import importlib
        package = importlib.import_module({package!r})
        names = list(package.__all__)
        assert len(set(names)) == len(names), names
        missing = [n for n in names if n not in dir(package)]
        assert not missing, missing
        star = {{}}
        exec("from {package} import *", star)
        assert set(names) <= set(star), set(names) - set(star)
        for name in names:
            assert getattr(package, name) is star[name], name
        try:
            package.no_such_name
        except AttributeError:
            print(len(names))
        """
    )
    assert int(out) > 0


def test_the_quickstart_runs():
    out = _run(
        """
        from repro import amd_opteron_6272, important_placements
        machine = amd_opteron_6272()
        print(len(important_placements(machine, vcpus=16)))
        """
    )
    assert out.strip() == "13"


def test_a_serve_report_decodes_after_importing_only_the_report(tmp_path):
    """The report's churn and service fields name records whose modules
    ``repro.scheduler.scheduler`` does not import; decoding loads them."""
    path = tmp_path / "serve.json"
    path.write_text(
        _run(
            """
            import sys
            from repro.cli import main
            sys.exit(main(sys.argv[1:]))
            """,
            *"serve --shards 2 --window 4 --hosts 8 --requests 40".split(),
            *"--max-events 60 --emit-json".split(),
        )
    )
    out = _run(
        """
        import json, sys
        from repro.scheduler import FleetReport

        payload = json.load(open(sys.argv[1]))
        assert payload["churn"] and payload["service"], payload.keys()
        payload.pop("summary")
        again = FleetReport.from_dict(payload, {}).to_dict(include_decisions=False)
        again.pop("summary")
        assert again == payload
        print("round-trips")
        """,
        str(path),
    )
    assert out.strip() == "round-trips"

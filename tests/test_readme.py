import os
import re
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from taukb.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_what_the_cli_prints():
    # the python block under "## Library", run as a reader would, in a fresh
    # process, so a retired public name fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n+```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", example], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "NotImplies\n" + CliRunner().invoke(main, ["explain", "18", "8"]).stdout

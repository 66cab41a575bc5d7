"""Set-up probe: prints ``ready`` once the CLI could start on a config.

    python3 perfbench/ready.py CONFIG

Ready means ``import ergolab.cli``, ``load_config`` and
``build_stage_table`` are done, which every CLI call pays before its
subcommand runs.  ``run.py`` times it from spawn to the ``ready`` line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ergolab import cli, tower  # noqa: E402

tower.build_stage_table(cli.load_config(sys.argv[1]).construction())
print("ready", flush=True)

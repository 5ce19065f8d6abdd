"""Set-up probe: everything a run does before its first item can start.

Imports ril from the given source directory, loads the bundled expected
marks, parses the first item's command line and, where it names one, its
config file; then prints ``ready``.  The benchmark times this process from
its start to that line.

    python3 setup_probe.py <src dir> <ril arguments...>
"""

import sys

sys.path.insert(0, sys.argv[1])

from ril import cli, table  # noqa: E402

table.expected_marks()
args = cli.build_parser().parse_args(sys.argv[2:])
if getattr(args, "config", None):
    base = table.table_check_config() if args.command == "table" else None
    cli.experiment_config(args, base=base)
print("ready", flush=True)
